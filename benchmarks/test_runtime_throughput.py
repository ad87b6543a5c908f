"""Runtime throughput — blade scaling and policy comparison of the
concurrent BLAS job scheduler (no paper counterpart; this is the
reproduction growing toward the ROADMAP's production-scale target).

Three studies:

* **Blade scaling.** Replay an embarrassingly parallel gemm burst on
  1/2/4/6 blades of one chassis and check that aggregate sustained
  GFLOPS scales ≥ 4× from one blade to six (the PR's acceptance bar;
  the shortfall from 6× is honest — bitstream loads and the tail of
  the last batch round don't parallelize).
* **Gang speedup.** One n=1024 gemm planned as a 4-blade linear
  array (paper Section 5.2) must finish in ≤ 0.35× the single-blade
  virtual-time makespan — the n³/(k·l) model predicts ~1/l, and the
  extra reconfigurations, array fill/drain and startup must not eat
  the win.
* **Policy comparison.** On a mixed dot/gemv/gemm/spmxv stream, the
  area-aware policy must pay the fewest reconfigurations, and every
  policy must complete the whole stream.
"""

import numpy as np

from benchmarks.conftest import within
from repro.perf.report import Comparison
from repro.runtime import BlasRuntime
from repro.runtime.job import BlasRequest
from repro.runtime.scheduler import POLICIES
from repro.workloads import blas_request_mix, gemm_burst

JOBS = 120
GEMM_N = 64
GANG_N = 1024


def _burst_gflops(blades: int) -> float:
    rng = np.random.default_rng(7)
    runtime = BlasRuntime(chassis=1, blades=blades, policy="area")
    for at, request in gemm_burst(JOBS, GEMM_N, rng):
        runtime.submit(request, at=at)
    metrics = runtime.run()
    assert metrics.jobs_completed == JOBS
    return metrics.sustained_gflops


def test_blade_scaling(benchmark, emit):
    results = benchmark.pedantic(
        lambda: {b: _burst_gflops(b) for b in (1, 2, 4, 6)},
        iterations=1, rounds=1)
    base = results[1]
    print(f"\ngemm burst ({JOBS} jobs, n={GEMM_N}) across blades:")
    print(f"{'blades':>7} {'GFLOPS':>8} {'speedup':>8}")
    for blades, gflops in results.items():
        print(f"{blades:>7} {gflops:>8.3f} {gflops / base:>8.2f}")

    rows = [
        Comparison("6-blade speedup (bar: >= 4x)", 6.0,
                   results[6] / base, "x", rel_tol=0.35),
    ]
    emit("Runtime blade scaling", rows)
    within(rows)
    assert results[6] >= 4.0 * base
    assert results[4] > results[2] > results[1]


def _gang_makespan(blades: int, max_gang: int) -> float:
    rng = np.random.default_rng(11)
    A = rng.standard_normal((GANG_N, GANG_N))
    B = rng.standard_normal((GANG_N, GANG_N))
    runtime = BlasRuntime(chassis=1, blades=blades, policy="area",
                          max_gang=max_gang)
    runtime.submit(BlasRequest("gemm", (A, B)))
    metrics = runtime.run()
    assert metrics.jobs_completed == 1
    if max_gang > 1:
        assert metrics.gangs_formed == 1
        assert metrics.blades_per_job == {str(max_gang): 1}
    return metrics.makespan_seconds


def test_gang_speedup(benchmark, emit):
    results = benchmark.pedantic(
        lambda: {"single": _gang_makespan(1, 1),
                 "gang": _gang_makespan(6, 4)},
        iterations=1, rounds=1)
    ratio = results["gang"] / results["single"]
    print(f"\nn={GANG_N} gemm makespan: single "
          f"{results['single'] * 1e3:.3f} ms, 4-blade gang "
          f"{results['gang'] * 1e3:.3f} ms ({ratio:.3f}x)")

    rows = [
        Comparison("4-blade gang makespan ratio (bar: <= 0.35x)",
                   0.25, ratio, "x", rel_tol=0.40),
    ]
    emit("Runtime gang speedup", rows)
    within(rows)
    assert ratio <= 0.35


def test_policy_comparison(benchmark, emit):
    def sweep():
        outcomes = {}
        for name in sorted(POLICIES):
            rng = np.random.default_rng(13)
            runtime = BlasRuntime(chassis=1, blades=6, policy=name)
            for at, request in blas_request_mix(60, rng):
                runtime.submit(request, at=at)
            outcomes[name] = runtime.run()
        return outcomes

    outcomes = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\npolicy comparison (60-job mixed stream, 6 blades):")
    print(f"{'policy':>6} {'GFLOPS':>8} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'reconf':>7}")
    for name, metrics in outcomes.items():
        print(f"{name:>6} {metrics.sustained_gflops:>8.3f} "
              f"{metrics.latency.percentile(50) * 1e3:>8.3f} "
              f"{metrics.latency.percentile(99) * 1e3:>8.3f} "
              f"{sum(d.reconfigurations for d in metrics.devices):>7}")

    for name, metrics in outcomes.items():
        assert metrics.jobs_completed == 60, name
        assert metrics.jobs_failed == 0, name

    reconfigs = {name: sum(d.reconfigurations for d in m.devices)
                 for name, m in outcomes.items()}
    assert reconfigs["area"] == min(reconfigs.values())
    # SJF should not lose on median latency to FIFO on a bursty queue.
    assert (outcomes["sjf"].latency.percentile(50)
            <= outcomes["fifo"].latency.percentile(50) * 1.05)
