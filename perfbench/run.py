"""Benchmark entry point: run one workload against qfock and print one JSON line.

    python3 perfbench/run.py --workload exact-constant --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; qfock is imported from ./src. Each
operation runs in a fresh interpreter (perfbench/worker.py). Times are
reported at reference speed, measured by the reference loop (refloop.py),
which runs here, where no object of qfock is alive, around every operation
and, with the worker stopped, every PAUSE_EVERY_S while it runs. Rounds of
the whole workload repeat until --seconds have passed; per operation the
median over rounds is taken, then summed. --trace 1 runs every operation
once plain and once with spans around qfock's public functions, and
reports the per-layer metrics instead of the end-to-end ones."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import refloop
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
PAUSE_EVERY_S = 0.1

PER_LAYER = [
    ("fock.self_s", "s"), ("fock.gram.calls", "count"), ("fock.gram.self_s", "s"),
    ("fock.adjoint.calls", "count"), ("fock.adjoint.self_s", "s"),
    ("fock.inner.calls", "count"), ("fock.inner.self_s", "s"),
    ("fock.float_gram.calls", "count"), ("fock.float_gram.self_s", "s"),
    ("dual.self_s", "s"), ("dual.conjugate_series.calls", "count"),
    ("dual.conjugate_series.self_s", "s"), ("dual.conjugate_series.useful_ratio", "ratio"),
    ("dual.partition.calls", "count"), ("dual.partition.self_s", "s"), ("dual.recursive.calls", "count"),
    ("ncpoly.wick_partition.self_s", "s"), ("ncpoly.diff_partition.self_s", "s"),
    ("ncpoly.self_s", "s"), ("ncpoly.duality_residual.calls", "count"), ("ncpoly.vector_to_poly.self_s", "s"),
    ("partitions.self_s", "s"), ("partitions.enumerate.calls", "count"),
    ("partitions.enumerate.diagrams", "count"), ("partitions.crossings.calls", "count"),
    ("partitions.crossings.self_s", "s"),
    ("norms.self_s", "s"), ("norms.series_tail.calls", "count"), ("norms.series_tail.terms", "count"),
    ("norms.series_tail.self_s", "s"),
    ("onevariable.self_s", "s"), ("onevariable.q_identity.calls", "count"),
    ("scalars.self_s", "s"), ("scalars.q_binom.calls", "count"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
]


def _wait_stopped(pid):
    """Wait until the process has stopped; False if it ended first."""
    for _ in range(2000):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return False
        if state in ("T", "t"):
            return True
        if state in ("Z", "X"):
            return False
        time.sleep(0.0001)
    return False


def _overlap(pauses, start, end):
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)


class Worker:
    """One operation in a fresh interpreter.

    While the worker runs, it is stopped every PAUSE_EVERY_S and one
    reference loop runs here; the paused intervals are taken out of the
    worker's times, and the loops timed in an interval give the machine's
    speed over that same interval.
    """

    def __init__(self, root, tmp):
        # One BLAS thread: a thread pool that starts on the shared second core
        # makes set-up and numpy work swing by a third with other tenants' load.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.tmp = tmp

    def _read_line(self, proc, pauses, deadline):
        fd = proc.stdout.fileno()
        while not select.select([fd], [], [], PAUSE_EVERY_S)[0]:
            if time.perf_counter() > deadline:
                raise subprocess.TimeoutExpired(proc.args, OP_TIMEOUT_S)
            begin = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            try:
                loop = refloop.one() if _wait_stopped(proc.pid) else None
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            pauses.append((begin, time.perf_counter(), loop))
        return proc.stdout.readline()

    def run(self, job):
        pauses = []
        deadline = time.perf_counter() + OP_TIMEOUT_S
        with open(self.tmp / "worker.log", "a") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                env=self.env, text=True,
            )
            try:
                ready = self._read_line(proc, pauses, deadline)
                ready_at = time.perf_counter()
                if ready.strip() != "ready":
                    raise RuntimeError("worker did not start: see worker.log")
                proc.stdin.write(json.dumps(job) + "\n")
                proc.stdin.flush()
                line = self._read_line(proc, pauses, deadline)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        result = json.loads(line)
        spans = [(a, b) for a, b, _ in pauses]
        start, end = result.pop("t_start"), result.pop("t_end")
        result["wall_s"] = (end - start) - _overlap(spans, start, end)
        result["setup_s"] = (ready_at - spawned) - _overlap(spans, spawned, ready_at)
        result["loops"] = [t for _, _, t in pauses if t is not None]
        return result


def run_op(worker, op, tmp, trace_path=None):
    """Run op; return its figures with every reference loop timed around
    and inside it."""
    before = refloop.measure()
    job = {"kind": op.kind, "argv": op.argv, "call": op.call, "params": op.params,
           "out": str(tmp / f"{op.name}.out"), "trace": trace_path}
    try:
        res = worker.run(job)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        res = {"code": 1, "error": repr(exc), "wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0,
               "setup_s": 0.0, "trace": None, "loops": []}
    res["loops"] = before + res["loops"] + refloop.measure()
    res["output"] = Path(job["out"]).read_text() if Path(job["out"]).exists() else ""
    return res


def per_layer(trace):
    """Per-layer values of one traced operation, in raw seconds and counts."""
    names, layers, work = trace["names"], trace["layers"], trace["work"]
    out = {}
    for metric, _ in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if metric in ("trace.overhead_s", "dual.conjugate_series.useful_ratio"):
            continue  # need the untraced run or the whole round
        if head in layers and tail == "self_s":
            out[metric] = layers[head]
        elif tail in ("calls", "self_s"):
            out[metric] = names.get(head, {}).get(tail, 0)
        else:
            out[metric] = work.get(metric, 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qfock" / "cli.py").is_file():
        sys.stderr.write(f"no qfock sources under {root / 'src'}; run from the root of a checkout\n")
        return 2
    tmp = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, root, tmp):
    worker = Worker(root, tmp)
    ops = workloads.build(args.workload, args.seed, tmp)
    # byte-compile qfock once, so that no measured set-up includes the compiler
    worker.run({"kind": "lib", "call": "noop", "params": {}, "out": str(tmp / "warmup.out"), "trace": None})

    texts = {}
    for op in ops:
        if op.reference:
            res = run_op(worker, op, tmp)
            if res["code"] != 0:
                sys.stderr.write(f"reference operation {op.name} failed: {res['error']}\n")
                return 1
            texts[op.name] = res["output"]
    measured = [op for op in ops if not op.reference]
    trace_dir = HERE / "out" / "traces"

    rounds, loops, attempted, failed = [], [], 0, 0
    verdicts, absent = {}, set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        results = {}
        for op in measured:
            res = results[op.name] = run_op(worker, op, tmp)
            loops += res["loops"]
            attempted += 1
            if res["code"] != 0:
                failed += 1
            else:
                texts[op.name] = res["output"]
            if args.trace:
                trace_dir.mkdir(parents=True, exist_ok=True)
                path = trace_dir / f"{args.workload}-seed{args.seed}-{op.name}.json"
                traced = run_op(worker, op, tmp, str(path))
                loops += traced["loops"]
                if traced["trace"] is None:
                    sys.stderr.write(f"traced {op.name} failed: {traced['error']}\n")
                    return 1
                absent.update(traced["trace"]["absent"])
                res["layers"] = per_layer(traced["trace"])
                res["layers"]["trace.overhead_s"] = traced["wall_s"] - res["wall_s"]
                series = traced["trace"]["names"].get("dual.conjugate_series", {})
                res["series_calls"] = (traced["trace"]["distinct"].get("dual.conjugate_series", 0), series.get("calls", 0))
        # outputs repeat from round to round, so each set of outputs is checked once
        key = hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()
        if key not in verdicts:
            verdicts[key] = run_checks(measured, results, texts)
        rounds.append(results)

    problems = sorted({p for v in verdicts.values() for p in v})
    names = [op.name for op in measured]
    scale = refloop.NOMINAL_S / refloop.typical([wall for wall, _ in loops])
    cpu_scale = refloop.NOMINAL_S / refloop.typical([cpu for _, cpu in loops])

    def total(field):
        """Sum over operations of the median over rounds, raw seconds."""
        return sum(statistics.median(r[n][field] for r in rounds) for n in names)

    setup = statistics.median(r[n]["setup_s"] for r in rounds for n in names)
    raw = {
        "rounds": len(rounds),
        "scale": scale,
        "cpu_scale": cpu_scale,
        "wall_s": total("wall_s"),
        "cpu_s": total("cpu_s"),
        "setup_s": setup,
        "op_wall_s": {n: statistics.median(r[n]["wall_s"] for r in rounds) for n in names},
        "loops": loops,
    }
    if args.trace:
        metrics = {}
        for metric, unit in PER_LAYER:
            per_round = [sum(r[n]["layers"].get(metric, 0) for n in names) for r in rounds]
            value = statistics.median(per_round)
            metrics[metric] = {"value": value * scale if unit == "s" else value, "unit": unit}
        distinct = sum(rounds[0][n]["series_calls"][0] for n in names)
        calls = sum(rounds[0][n]["series_calls"][1] for n in names)
        metrics["dual.conjugate_series.useful_ratio"]["value"] = distinct / calls if calls else 1.0
    else:
        metrics = {
            "wall_s": {"value": total("wall_s") * scale, "unit": "s"},
            "cpu_s": {"value": total("cpu_s") * cpu_scale, "unit": "s"},
            "peak_rss_mb": {"value": max(r[n]["rss_kb"] for r in rounds for n in names) / 1024, "unit": "MB"},
            "setup_s": {"value": setup * scale, "unit": "s"},
        }
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    for name in sorted(absent):
        sys.stderr.write(f"absent from qfock, its metrics read 0: {name}\n")
    sys.stderr.write(json.dumps({"raw": raw}) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_checks(measured, results, texts):
    """Check every operation that succeeded; return the failures."""
    outputs = {name: json.loads(text) for name, text in texts.items()}
    problems = []
    for op in measured:
        if results[op.name]["code"] != 0 or op.check is None:
            continue
        try:
            op.check(outputs)
        except (checks.CheckFailed, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"{op.name}: {exc!r}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
