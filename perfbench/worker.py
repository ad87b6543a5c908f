"""One workload in one fresh process; prints its result as JSON.

    python3 perfbench/worker.py --workload serve_mix --seed 7 \\
        --seconds 7.5 --mode run|trace|setup

``setup`` only builds the workload (imports, inputs, service or
runtime) and reports how long that took.  ``run`` also measures it for
``--seconds`` and gates the results.  ``trace`` measures with every
layer wrapped and writes the spans to ``--spans``; its gate skips the
cycle-mode reference, and ``run.py`` checks its results against an
untraced run of the same seed instead.  ``run.py`` starts
this with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import time

START = time.perf_counter()  # repro: allow(LINT001)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import loads  # noqa: E402  (imports the repro package)
from spans import Tracer, layer_metrics  # noqa: E402


def environment():
    """Versions and thread caps this process ran with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=loads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    run = loads.make_run(args.workload, args.seed)
    setup_s = time.perf_counter() - START  # repro: allow(LINT001)
    result = {"setup_s": setup_s}
    if args.mode == "run":
        # The slow steps of the gate's reference run between timed
        # stretches, so the rounds sample the machine over a longer
        # wall window.
        steps = run.reference_steps()
        share = args.seconds / (len(steps) + 1)
        run.measure(share)
        for step in steps:
            step()
            run.measure(share)
        outcome = run.outcome()
    elif args.mode == "trace":
        # No cycle-mode replay: run.py checks a traced run against the
        # untraced run of the same seed instead.
        tracer = Tracer()
        with tracer.installed():
            run.measure(args.seconds, tracer)
        from repro.sim.fast import reduction_program

        outcome = run.outcome()
        result["layers"] = layer_metrics(
            tracer.spans, outcome.completed, sum(outcome.rounds_s),
            outcome.rejects, reduction_program.cache_info())
        if args.spans:
            tracer.dump(args.spans)
    if args.mode != "setup":
        result.update(
            ops=outcome.ops, attempted=outcome.attempted,
            failed=outcome.failed, rejects=outcome.rejects,
            best_s=outcome.best_s, rounds_s=outcome.rounds_s,
            latencies_s=outcome.latencies_s,
            epoch_hashes=outcome.epoch_hashes, gate=outcome.gate,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment())
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
