"""Run one function on several threads at once, for the thread-safety tests."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor


def together(fn, args):
    """fn over args on one thread each (at most 4), all released at once,
    with a short switch interval so the threads interleave finely."""
    start = threading.Barrier(len(args), timeout=60)

    def call(arg):
        start.wait()
        return fn(arg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(args)) as pool:
            return list(pool.map(call, args, timeout=120))
    finally:
        sys.setswitchinterval(interval)
