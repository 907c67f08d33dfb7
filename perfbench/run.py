"""circlepoly benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series_n2048 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # one op per workload

One client runs ops back to back (closed loop, no think time) in this
process; numpy may use up to nproc threads.  Op 0 runs before the timed
window.  Every op's output is checked, and after the window op 0 is run
again with its seed: its output must be identical, or the run counts a
failed op.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the result.
See README.md for the workloads and what each metric should track.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)  # the checkout's own source, ahead of any installed copy

import numpy as np  # noqa: E402

import circlepoly  # noqa: E402
from circlepoly import _accel  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_PROBES = 9
TAIL_BEYOND = 10
WORKDIR = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
clock = time.perf_counter


def run_op(workload, seed, index, tracer=None):
    """One op: inputs, the timed call, then the check outside the timing.

    Returns (op seconds, max_err or None on failure, fingerprint)."""
    inputs = workload.make_inputs(seed, index)
    dt = 0.0
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = clock()
            try:
                result = workload.run(inputs)
            finally:
                dt = clock() - t0
        err, fingerprint = workload.check(inputs, result)
        return dt, err, fingerprint
    except Exception:  # any failure of an op is counted, and the run goes on
        print(f"{workload.name} op {index} (seed {seed}) failed:", file=sys.stderr)
        traceback.print_exc()
        return dt, None, None


class Window:
    """Closed loop of ops for a fixed time, with their times and checks.

    With a tracer, every other op is traced, so that a drift in machine
    speed slows traced and untraced ops alike."""

    def __init__(self, workload, seed, seconds, max_ops, first_index=0, tracer=None):
        self.times, self.traced, self.errs, self.failed = [], [], [], 0
        self.fingerprint0 = None
        min_ops = 2 if tracer else 1
        start = clock()
        index = first_index
        while index - first_index < max_ops and (index - first_index < min_ops or clock() - start < seconds):
            traced = tracer is not None and (index - first_index) % 2 == 1
            dt, err, fingerprint = run_op(workload, seed, index, tracer if traced else None)
            self.times.append(dt)
            self.traced.append(traced)
            if err is None:
                self.failed += 1
            else:
                self.errs.append(err)
            if index == first_index:
                self.fingerprint0 = fingerprint
            index += 1
        self.seconds = clock() - start
        self.next_index = index

    @property
    def ops(self):
        return len(self.times)


def leak_check(workload, seed, index, fingerprint):
    """Rerun op `index` after the window; its output must not have changed."""
    _, err, again = run_op(workload, seed, index)
    if err is None or fingerprint is None or again != fingerprint:
        print(f"{workload.name}: rerun of op {index} differs from its first run", file=sys.stderr)
        return False
    return True


def tail(times):
    """Highest percentile with at least TAIL_BEYOND ops beyond it.

    Returns (seconds, percentile, ops beyond); with too few ops, the maximum."""
    ts = sorted(times)
    n = len(ts)
    if n <= TAIL_BEYOND:
        return ts[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ts[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def setup_seconds(name, seed, probes):
    """Median over fresh processes of: import circlepoly, make op 0's inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    values = []
    for k in range(probes):
        workdir = os.path.join(WORKDIR, f"probe{k}")
        proc = subprocess.run(
            [sys.executable, probe, name, str(seed), workdir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def context(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_ladder": bool(_accel.USE_NUMBA),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace, max_ops=None, probes=SETUP_PROBES):
    """Run one workload; return (result dict, notes for the printed lines).

    With `trace`, `max_ops` bounds the traced and the untraced ops each."""
    max_ops = max_ops or sys.maxsize
    # op 0 is checked but untimed: it pays first-touch allocation and lazy set-up
    first = Window(workload, seed, 0.0, 1)
    if trace:
        tracer = Tracer()
        w = Window(workload, seed, seconds, 2 * max_ops, first.next_index, tracer)
        traced = [t for t, on in zip(w.times, w.traced) if on]
        plain = [t for t, on in zip(w.times, w.traced) if not on]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    else:
        w = Window(workload, seed, seconds, max_ops, first.next_index)
    leak_ok = leak_check(workload, seed, 0, first.fingerprint0)
    checked = [first, w]
    attempted = sum(w.ops for w in checked) + 1
    failed = sum(w.failed for w in checked) + (not leak_ok)
    errs = [e for w in checked for e in w.errs]
    notes = {
        "fail_frac": metric(failed / attempted, "ratio"),
        "check.max_err": metric(max(errs, default=0.0), "err"),
        "leak_check": "identical" if leak_ok else "DIFFERENT",
    }
    if trace:
        metrics = tracer.per_op()
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        metrics["check.max_err"] = notes["check.max_err"]
        notes["ops"] = f"{len(plain)} untraced + {len(traced)} traced ops, alternating"
    else:
        t, pct, beyond = tail(w.times)
        metrics = {
            "ops_per_s": metric((w.ops - w.failed) / w.seconds, "1/s"),
            "op_p50_s": metric(statistics.median(w.times), "s"),
            "op_tail_s": metric(t, "s"),
            "setup_s": metric(setup_seconds(workload.name, seed, probes), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes["ops"] = f"{w.ops} ops in {w.seconds:.2f} s"
        notes["tail"] = f"p{pct:.1f}, {beyond} ops beyond" + ("" if beyond else " (too few ops: the maximum)")
        notes["setup"] = f"median of {probes} fresh processes"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def report(name, result, notes):
    """Human-readable lines: every metric by name, with its unit."""
    print(f"{name}: {notes['ops']}, state-leak rerun of op 0 {notes['leak_check']}")
    extra = {"op_p50_s": notes["ops"], "op_tail_s": notes.get("tail"), "setup_s": notes.get("setup")}
    for key, m in list(result["metrics"].items()) + [("fail_frac", notes["fail_frac"])]:
        suffix = f"  ({extra[key]})" if extra.get(key) else ""
        print(f"{name}  {key:<50} {m['value']:.6g} {m['unit']}{suffix}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one op of every workload")
    args = p.parse_args(argv)
    if not os.path.dirname(os.path.abspath(circlepoly.__file__)).startswith(SRC):
        print(f"circlepoly was not imported from {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        p.error("--workload is required without --smoke")
    names = WORKLOADS if args.smoke else [args.workload]
    print("context", json.dumps(context(args.seed)))
    ok = True
    try:
        for name in names:
            workload = make_workload(name, WORKDIR)
            if args.smoke:
                result, notes = measure(workload, args.seed, 0.0, args.trace, max_ops=1, probes=1)
            else:
                result, notes = measure(workload, args.seed, args.seconds, args.trace)
            report(name, result, notes)
            print(json.dumps(result))
            ok = ok and result["correct"]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORKDIR))  # left if another run still uses it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
