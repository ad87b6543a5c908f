"""Property-based tests for the reduction circuit's paper claims.

For arbitrary streams of arbitrary-size sets, the single-adder circuit
must (1) compute correct sums, (2) never stall the producer, (3) keep
buffer occupancy within 2α², (4) finish within Σsᵢ + 2α² cycles, and
(5) issue exactly Σ(sᵢ − 1) additions.

The vectorized replay (:class:`repro.sim.fast.FastReduction`) claims
*byte-identical* behavior — same value bits, same set ids, same
emission cycles, same flush-tail length — on every workload the cycle
circuit accepts; the equivalence properties at the bottom are that
proof.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction.analysis import latency_bound, run_reduction
from repro.reduction.single_adder import SingleAdderReduction
from repro.sim.fast import (
    PAT_LAST,
    PAT_VALUE,
    FastReduction,
    back_to_back_pattern,
)

alphas = st.sampled_from([2, 3, 4, 5, 8, 14])


@st.composite
def workloads(draw):
    """(alpha, list of sets) with adversarial size distribution."""
    alpha = draw(alphas)
    n_sets = draw(st.integers(1, 24))
    sizes = draw(st.lists(
        st.one_of(
            st.integers(1, 3),
            st.integers(max(1, alpha - 1), alpha + 1),
            st.integers(1, 2 * alpha),
            st.sampled_from([1, alpha, alpha * alpha, alpha * alpha + 1]),
        ),
        min_size=n_sets, max_size=n_sets,
    ))
    sets = [
        [draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
         for _ in range(s)]
        for s in sizes
    ]
    return alpha, sets


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_sums_are_correct(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    for got, values in zip(run.results_by_set(), sets):
        want = math.fsum(values)
        tol = 1e-9 * max(1.0, sum(abs(v) for v in values))
        assert abs(got - want) <= tol, (alpha, len(values), got, want)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_never_stalls_producer(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    assert run.stall_cycles == 0


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_buffer_occupancy_bounded(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    assert circuit.stats.max_buffer_occupancy <= 2 * alpha * alpha


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_total_latency_bound(workload):
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    sizes = [len(s) for s in sets]
    assert run.total_cycles < latency_bound(sizes, alpha)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_exact_addition_count(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    assert circuit.stats.adder_issues == sum(len(s) - 1 for s in sets)


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_one_result_per_set_with_matching_ids(workload):
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    run_reduction(circuit, sets)
    ids = sorted(r.set_id for r in circuit.results)
    assert ids == list(range(len(sets)))


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_matches_numpy_reference(workload):
    """The circuit's sums agree with ``np.sum`` over every set —
    the reference the runtime's fault-plane verification also uses."""
    alpha, sets = workload
    run = run_reduction(SingleAdderReduction(alpha=alpha), sets)
    for got, values in zip(run.results_by_set(), sets):
        want = float(np.sum(np.asarray(values, dtype=np.float64)))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(values))))
        assert abs(got - want) <= tol


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1))
def test_random_interleaving_matches_reference_and_bound(workload,
                                                         shuffle_seed):
    """Sets delivered in a shuffled order with random producer bubbles
    still reduce to the NumPy reference, and the total cycle count
    stays under the paper's Σsᵢ + 2α² bound shifted by the idle
    cycles we inserted."""
    import random

    alpha, sets = workload
    rnd = random.Random(shuffle_seed)
    order = list(range(len(sets)))
    rnd.shuffle(order)
    circuit = SingleAdderReduction(alpha=alpha)
    bubbles = 0
    for set_id in order:
        values = sets[set_id]
        for index, value in enumerate(values):
            while rnd.random() < 0.25:
                circuit.cycle()  # producer hiccup
                bubbles += 1
            assert circuit.cycle(value, index == len(values) - 1)
    circuit.flush()
    # set ids are assigned in arrival order, so result i is sets[order[i]]
    got = [r.value for r in sorted(circuit.results,
                                   key=lambda r: r.set_id)]
    assert len(got) == len(sets)
    for value, set_id in zip(got, order):
        values = np.asarray(sets[set_id], dtype=np.float64)
        want = float(np.sum(values))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(values))))
        assert abs(value - want) <= tol
    sizes = [len(s) for s in sets]
    assert circuit.stats.cycles < latency_bound(sizes, alpha) + bubbles


@settings(max_examples=60, deadline=None)
@given(workloads(),
       st.lists(st.integers(0, 5), min_size=0, max_size=30))
def test_input_gaps_do_not_break_correctness(workload, gaps):
    """Bubbles between inputs (producer hiccups) must be harmless."""
    alpha, sets = workload
    circuit = SingleAdderReduction(alpha=alpha)
    gap_iter = iter(gaps + [0] * 10_000)
    for values in sets:
        for index, value in enumerate(values):
            for _ in range(next(gap_iter)):
                circuit.cycle()  # bubble
            assert circuit.cycle(value, index == len(values) - 1)
    circuit.flush()
    got = [r.value for r in sorted(circuit.results, key=lambda r: r.set_id)]
    for value, values in zip(got, sets):
        want = math.fsum(values)
        tol = 1e-9 * max(1.0, sum(abs(v) for v in values))
        assert abs(value - want) <= tol


# ----------------------------------------------------------------------
# vectorized replay equivalence (repro.sim.fast.FastReduction)
# ----------------------------------------------------------------------
def _assert_byte_identical(cycle_circuit, fast_circuit,
                           cycle_flush, fast_flush):
    """Results and flush tails of the two circuits are bitwise equal."""
    assert cycle_flush == fast_flush
    assert len(cycle_circuit.results) == len(fast_circuit.results)
    for want, got in zip(cycle_circuit.results, fast_circuit.results):
        assert got.set_id == want.set_id
        assert got.cycle == want.cycle
        assert (np.float64(got.value).tobytes()
                == np.float64(want.value).tobytes()), (
            want.set_id, want.value, got.value)


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_fast_reduction_byte_identical_back_to_back(workload):
    """Back-to-back delivery (the dense kernels' pattern): the
    vectorized replay is indistinguishable from the cycle circuit."""
    alpha, sets = workload
    cycle_circuit = SingleAdderReduction(alpha=alpha)
    fast_circuit = FastReduction(alpha=alpha)
    for set_id, values in enumerate(sets):
        for index, value in enumerate(values):
            last = index == len(values) - 1
            assert cycle_circuit.cycle(value, last)
            assert fast_circuit.cycle(value, last)
    _assert_byte_identical(cycle_circuit, fast_circuit,
                           cycle_circuit.flush(), fast_circuit.flush())


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1))
def test_fast_reduction_byte_identical_random_interleaving(
        workload, shuffle_seed):
    """Random set order + random producer bubbles: still bitwise
    equal, including every emission cycle number."""
    import random

    alpha, sets = workload
    rnd = random.Random(shuffle_seed)
    order = list(range(len(sets)))
    rnd.shuffle(order)
    cycle_circuit = SingleAdderReduction(alpha=alpha)
    fast_circuit = FastReduction(alpha=alpha)
    for set_id in order:
        values = sets[set_id]
        for index, value in enumerate(values):
            while rnd.random() < 0.25:
                cycle_circuit.cycle()
                fast_circuit.cycle()
            last = index == len(values) - 1
            assert cycle_circuit.cycle(value, last)
            assert fast_circuit.cycle(value, last)
    _assert_byte_identical(cycle_circuit, fast_circuit,
                           cycle_circuit.flush(), fast_circuit.flush())


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_fast_reduction_matches_numpy_reference(workload):
    """Independent of the cycle circuit, the vectorized sums agree
    with NumPy over every set."""
    alpha, sets = workload
    fast_circuit = FastReduction(alpha=alpha)
    for values in sets:
        for index, value in enumerate(values):
            fast_circuit.cycle(value, index == len(values) - 1)
    fast_circuit.flush()
    got = [r.value for r in sorted(fast_circuit.results,
                                   key=lambda r: r.set_id)]
    assert len(got) == len(sets)
    for value, values in zip(got, sets):
        arr = np.asarray(values, dtype=np.float64)
        want = float(np.sum(arr))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(arr))))
        assert abs(value - want) <= tol


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_back_to_back_pattern_is_the_dense_arrival(workload):
    """``back_to_back_pattern(sizes)`` encodes exactly what driving
    the circuit value-per-cycle produces."""
    _, sets = workload
    sizes = [len(s) for s in sets]
    fast_circuit = FastReduction()
    for values in sets:
        for index, value in enumerate(values):
            fast_circuit.cycle(value, index == len(values) - 1)
    assert bytes(fast_circuit._pattern) == back_to_back_pattern(sizes)


def _joined_pattern(sizes):
    """The per-set ``b"".join`` encoding, kept as the oracle."""
    return b"".join(bytes([PAT_VALUE]) * (int(s) - 1) + bytes([PAT_LAST])
                    for s in sizes)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 300), max_size=40))
def test_back_to_back_pattern_matches_joined_form(sizes):
    """The array-built pattern is byte-equal to the per-set join,
    whether the sizes arrive as a list or as an int64 array."""
    want = _joined_pattern(sizes)
    assert back_to_back_pattern(sizes) == want
    assert back_to_back_pattern(np.asarray(sizes, dtype=np.int64)) == want


@pytest.mark.parametrize("sizes", [[0], [3, 0, 2], [2, -1],
                                   np.array([4, 0], dtype=np.int64)])
def test_back_to_back_pattern_rejects_empty_sets(sizes):
    """A size-0 set has no last value to mark; it must not be encoded
    as a one-value set."""
    with pytest.raises(ValueError, match="at least one value"):
        back_to_back_pattern(sizes)
