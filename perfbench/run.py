#!/usr/bin/env python3
"""Outside-in benchmark for varlap: four PDE workloads through the library API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload elliptic2d --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(and the tracing overhead against an untraced run of the same seed in a fresh
process).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line before it is
a human-readable record of the environment, the checks and the metrics.

Every run is one cold process with one BLAS/OpenMP thread and one
``scipy.fft`` worker; the weight cache is emptied before every set-up.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("elliptic2d", "cn3d", "phase2d", "conv2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: the ``step_ms_tail`` percentile leaves at least this many samples above it
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); below TAIL_BEYOND + 1 samples
    the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def pass_schedule(passes: int) -> list[int]:
    """Solve passes to run after each of the SETUP_REPS set-ups.

    The passes are spread over the set-ups, later ones first, so the timed
    samples span the whole run rather than its last seconds: the host's
    speed drifts over seconds, and a wider window averages more of it.  The
    last set-up is always followed by at least one pass.
    """
    base, extra = divmod(passes, SETUP_REPS)
    return [base + (k >= SETUP_REPS - extra) for k in range(SETUP_REPS)]


def measure(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """One run: SETUP_REPS cold set-ups, each followed by data generation
    and its share of the timed solve passes.

    With a tracer, recording covers the last set-up and the first pass after
    it only, so the per-layer figures describe one cold workload pass.
    """
    import numpy as np
    from varlap.weights import clear_weight_cache
    from workloads import WORKLOADS

    w = WORKLOADS[name]()
    passes = max(w.min_passes, round(seconds / w.nominal_pass_s))
    setup_s, gen_s, pass_s, op_runs, lines = [], [], [], [], []
    attempted = failed = p = 0
    for k, k_passes in enumerate(pass_schedule(passes)):
        state = data = None               # free the previous operators first
        clear_weight_cache()
        last = k == SETUP_REPS - 1
        if tracer is not None:
            tracer.recording = last
        t0 = time.perf_counter()
        state = w.setup()
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.recording = False
        if not k_passes:
            continue

        # the same seed gives the same data after every set-up
        t0 = time.perf_counter()
        data = w.make_data(state, np.random.default_rng(seed))
        gen_s.append(time.perf_counter() - t0)

        for j in range(k_passes):
            recorded = last and j == 0
            if tracer is not None:
                tracer.recording = recorded
            t0 = time.perf_counter()
            out = w.solve(state, data)
            pass_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.recording = False
            if recorded:
                recorded_s = setup_s[-1] + gen_s[-1] + pass_s[-1]
            checks = w.check(state, data, out)
            attempted += out.attempted
            failed += min(out.attempted, out.failed + sum(not c.ok for c in checks))
            op_runs.append(out.op_seconds)
            if p == 0 or not all(c.ok for c in checks):
                lines += [f"note {name} pass {p}: {n}" for n in out.notes]
                lines += [f"check {name} pass {p} {c.label}: "
                          f"{'ok' if c.ok else 'FAILED'} ({c.detail})" for c in checks]
                extra = w.report(out)
                if extra is not None:
                    lines.append(f"report {name}: {extra}")
            p += 1

    # one latency per operation: its median over the passes
    step_s = [statistics.median(ts) for ts in zip(*op_runs)]
    step_tail, pct, n_steps = tail(step_s)
    setup_med, solve_med = statistics.median(setup_s), statistics.median(pass_s)
    gen_med = statistics.median(gen_s)
    metrics = {
        "setup_s": (setup_med, "s"),
        "solve_s": (solve_med, "s"),
        "wall_s": (gen_med + setup_med + solve_med, "s"),
        "step_ms_p50": (statistics.median(step_s) * 1e3, "ms"),
        "step_ms_tail": (step_tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }
    lines.append(f"info {name}: {SETUP_REPS} set-ups {[round(s, 4) for s in setup_s]} s, "
                 f"{passes} solve passes split {pass_schedule(passes)} over them, "
                 f"data generation {gen_med:.4f} s")
    lines.append(f"info {name}: step_ms_tail is p{pct:.1f} of {n_steps} "
                 f"operations, each the median of {passes} passes")
    lines.append(f"info {name}: fail_share {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} operations)")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "lines": lines, "recorded_s": recorded_s}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def run_child(args, workload: str, trace: int) -> tuple[list[str], dict]:
    """Run one workload in a fresh process; return its lines and result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} child exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_traced(args) -> int:
    from tracing import Tracer

    child_lines, untraced = run_child(args, args.workload, trace=0)
    for line in child_lines:
        print(f"untraced| {line}")
    untraced_wall = untraced["metrics"]["wall_s"]["value"]

    tracer = Tracer()
    remove = tracer.install()
    try:
        res = measure(args.workload, args.seed, args.seconds, tracer)
    finally:
        remove()
    traced_wall = res["metrics"]["wall_s"][0]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall,
                                       "ratio")
    metrics["trace.covered_share"] = (tracer.root_time() / res["recorded_s"], "ratio")
    for line in res["lines"]:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"layer {key} {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": environment(),
                   "untraced_wall_s": untraced_wall,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "counts": dict(tracer.counts),
                   "spans": tracer.spans}, fh)
    print(f"info spans written to {path.relative_to(ROOT)}")
    attempted = res["attempted"] + untraced["attempted"]
    failed = res["failed"] + untraced["failed"]
    print(result_line(untraced["correct"] and res["failed"] == 0,
                      attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own cold process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        lines, res = run_child(args, name, trace=args.trace)
        for line in lines:
            print(f"{name}| {line}")
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, m in res["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "varlap" / "__init__.py").is_file():
        print(f"perfbench: no varlap source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    # thread pools read these at import, so pin before numpy is loaded
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import scipy.fft

    with scipy.fft.set_workers(1):
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"env {json.dumps(environment())}")
        if args.trace:
            return run_traced(args)
        res = measure(args.workload, args.seed, args.seconds)
        for line in res["lines"]:
            print(line)
        for key, (value, unit) in res["metrics"].items():
            print(f"metric {key} {value:.6g} {unit}")
        print(result_line(res["failed"] == 0, res["attempted"], res["failed"],
                          res["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
