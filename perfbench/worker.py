"""Runs one benchmark operation in a fresh interpreter.

Protocol on stdin/stdout, one JSON line each way:
  worker -> "ready" once ``import qfock.cli`` has finished (set-up ends);
  parent -> the job: {"kind": "cli", "argv": [...]} or
            {"kind": "lib", "call": name, "params": {...}},
            plus "out" (where the output goes) and "trace" (trace path or null);
  worker -> {"code", "t_start", "t_end", "cpu_s", "rss_kb", "error", "trace"},
            the times from time.perf_counter, a clock shared by all processes.

A fresh process per operation starts every operation with qfock's
process-wide caches empty, as a command-line user's process does.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import qfock.cli


def _q_identity(params):
    from qfock.onevariable import q_identity_residual

    chk = q_identity_residual(params["m"], params["q"], params["N"])
    return {
        "m": params["m"],
        "q": params["q"],
        "N": params["N"],
        "residual": chk.residual,
        "tail_bound": chk.tail_bound,
        "noise_bound": chk.noise_bound,
    }


def _tails(params):
    """log10 of each tail bound: at strong deformation the bounds leave
    double range while staying finite."""
    import mpmath
    from qfock.norms import series_tail

    tails = {}
    for q0 in params["q0s"]:
        for series in ("xi", "fisher", "gibbs", "lipschitz"):
            reports = [series_tail(series, m, q0, params["d"]) for m in range(params["top"] + 1)]
            tails[f"{series} q0={q0}"] = [
                float(mpmath.log10(r.bound)) if r.is_finite() and r.bound > 0 else None for r in reports
            ]
    return {"d": params["d"], "log10_tails": tails}


LIB_CALLS = {"q_identity": _q_identity, "tails": _tails, "noop": lambda params: {}}


def run(job):
    buf = io.StringIO()
    if job["kind"] == "cli":
        def call():
            with contextlib.redirect_stdout(buf):
                return qfock.cli.main(job["argv"])
    else:
        def call():
            buf.write(json.dumps(LIB_CALLS[job["call"]](job["params"])))
            return 0

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced = call
        call = lambda: tracer.span("bench.op", traced)  # noqa: E731

    error = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = call()
    except Exception:  # the operation failed; report it, as the CLI would exit 1
        code, error = 1, traceback.format_exc(limit=3)
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    with open(job["out"], "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    result = {
        "code": code,
        "t_start": start,
        "t_end": end,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "rss_kb": after.ru_maxrss,
        "error": error,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["trace"])
    return result


if __name__ == "__main__":
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(json.dumps(run(json.loads(sys.stdin.readline()))) + "\n")
    sys.stdout.flush()
