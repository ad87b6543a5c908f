"""Layered wall-clock benchmark of the repro serving and gang stacks.

    python3 perfbench/run.py --workload serve_mix|serve_cg|gang_gemm \\
        --seed 7 --seconds 25 --trace 0|1

Run from the root of a checkout.  Every workload runs in fresh worker
processes (``worker.py``) with BLAS/OpenMP threads capped at the CPUs
this process may use.

``--trace 0`` measures the end-to-end metrics: several set-up-only
processes plus one untraced timed run.  ``--trace 1`` splits the
seconds between an untraced and a traced timed run, reports the
per-layer metrics of the traced one and writes its spans to
``perfbench/out/<workload>-spans.jsonl``.  Either way every metric is
printed with its unit and sample count, a report goes to
``perfbench/out/``, and the last line of standard output is the JSON
result.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("serve_mix", "serve_cg", "gang_gemm")
#: Set-up samples per untraced run: this many set-up-only processes
#: plus the timed run's own set-up; the median is reported.
SETUP_SAMPLES = 3
#: Whole-run budget; workers still running at the deadline are killed.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def worker_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(nproc)
    return env


def run_worker(args, deadline, mode, seconds=0.0, spans=None):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--mode", mode]
    if spans:
        command += ["--spans", spans]
    left = deadline - time.monotonic()  # repro: allow(LINT001)
    if left <= 0:
        raise BenchmarkError("time budget exhausted")
    try:
        done = subprocess.run(command, env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker exceeded the time budget")
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} worker failed "
                             f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated percentile (NumPy's default method)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def throughput(result):
    """Operations of one round over the sum of each step's best time."""
    return result["ops"] / result["best_s"]


def end_to_end(args, deadline):
    setups = [run_worker(args, deadline, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = run_worker(args, deadline, "run", args.seconds)
    setups.append(run["setup_s"])
    latencies_ms = [s * 1e3 for s in run["latencies_s"]]
    samples = len(latencies_ms)
    metrics = {
        "throughput_ops_per_s": (throughput(run), "op/s",
                                 len(run["rounds_s"])),
        "latency_p50_ms": (percentile(latencies_ms, 50), "ms", samples),
        "latency_p90_ms": (percentile(latencies_ms, 90), "ms", samples),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    return metrics, [run], {"setup_samples_s": setups}


def per_layer(args, deadline):
    half = args.seconds / 2.0
    plain = run_worker(args, deadline, "run", half)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"{args.workload}-spans.jsonl")
    traced = run_worker(args, deadline, "trace", half, spans)
    metrics = {name: tuple(value)
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        throughput(traced) / throughput(plain), "ratio", 2)
    # Both runs replay the same inputs from the start, so the traced
    # run is gated against the gated untraced one: every epoch (gemm)
    # they share must hash alike.
    shared = list(zip(plain["epoch_hashes"], traced["epoch_hashes"]))
    diverged = [i for i, (a, b) in enumerate(shared) if a != b]
    traced["gate"].update(compared_with_untraced=len(shared),
                          differ_from_untraced=diverged)
    if diverged:
        traced["failed"] = traced["attempted"]
    return metrics, [plain, traced], {"spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a repro checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S  # repro: allow(LINT001)
    try:
        if args.trace:
            metrics, runs, extra = per_layer(args, deadline)
        else:
            metrics, runs, extra = end_to_end(args, deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    environment = runs[0]["environment"]
    print(f"{'metric':40} {'value':>14}  {'unit':6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40} {value:14.6g}  {unit:6} {samples}")
    print(f"{'failed_ratio':40} {failed / attempted:14.6g}  {'ratio':6} "
          f"{attempted}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print("gate: " + json.dumps([r["gate"] for r in runs]))
    os.makedirs(OUT, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in metrics.items()},
              "gates": [r["gate"] for r in runs], **extra}
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
