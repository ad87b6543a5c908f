"""Tests of the benchmark harness itself (not of the repro package)."""

import importlib

import numpy as np
import pytest

import loads
from repro.blas.api import BlasCall, BlasResult
from spans import LAYERS, Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),   # overlaps a: union is [1, 6]
        Span("leaf", 2.0, 3.0, 1, "r"),
        Span("late", 9.0, 12.0, 0, "r"),  # clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_add_up_to_the_wall_time():
    spans = [
        Span("drain", 0.0, 6.0, -1, "d0"),
        Span("materialize", 0.5, 2.5, 0, "d0"),
        Span("poisson_2d", 1.0, 2.0, 1, "d0", note=16),
        Span("kernel.gemm", 3.0, 5.0, 0, "d0"),
        Span("admission.submit", 6.5, 7.0, -1, 0),
    ]

    class Cache:
        hits, misses = 3, 1

    metrics = layer_metrics(spans, ops=2, wall_s=8.0, rejects=0,
                            cache=Cache())
    assert metrics["drain.self_s"][0] == pytest.approx(1.0)
    assert metrics["materialize.s"][0] == pytest.approx(0.5)
    assert metrics["poisson_2d.s"][0] == pytest.approx(0.5)
    assert metrics["kernel.gemm_s"][0] == pytest.approx(1.0)
    assert metrics["unattributed_s"][0] == pytest.approx(0.75)
    assert metrics["poisson_2d.distinct_ratio"][0] == 1.0
    assert metrics["sim_fast.reduction_program.hit_ratio"][0] == 0.75
    layers = sum(v for v, unit, _ in metrics.values() if unit == "s/op")
    assert layers * 2 == pytest.approx(8.0)


def test_same_seed_same_stream_other_seed_other_stream():
    for workload in ("serve_mix", "serve_cg"):
        first = loads.EpochStream(workload, 5)
        again = loads.EpochStream(workload, 5)
        other = loads.EpochStream(workload, 6)
        epochs = [first.next_epoch() for _ in range(2)]
        assert epochs == [again.next_epoch() for _ in range(2)]
        assert epochs[0] != other.next_epoch()
        assert epochs[1][0]["id"] == loads.DRAIN_EVERY[workload]
        assert epochs[1][0]["at"] > epochs[0][-1]["at"]


def _one_round(workload, seed):
    run = loads.ServeRun(workload, seed)
    run.measure(0.0)
    return run


def test_same_seed_same_digests():
    hashes = [_one_round("serve_mix", 5).outcome().epoch_hashes
              for _ in range(2)]
    assert hashes[0] == hashes[1]
    assert len(hashes[0]) == loads.BLOCK_EPOCHS["serve_mix"]
    assert _one_round("serve_mix", 6).outcome().epoch_hashes != hashes[0]


def _flip_first_dot(monkeypatch):
    """Make the first dot result of the run differ in its last bit."""
    original = BlasCall.execute
    flipped = []

    def execute(call):
        result = original(call)
        if call.operation != "dot" or flipped:
            return result
        bits = np.array([result.value], dtype=np.float64)
        bits.view(np.int64)[0] ^= 1
        flipped.append(True)
        return BlasResult(float(bits[0]), result.report)

    monkeypatch.setattr(BlasCall, "execute", execute)
    return flipped


def test_gate_rejects_a_single_perturbed_result_bit(monkeypatch):
    # serve_cg: its cycle-mode replay is short, and its programs end
    # in a dot kernel.
    clean = _one_round("serve_cg", 5)
    clean.build_reference()
    outcome = clean.outcome()
    assert outcome.failed == 0 and outcome.gate["mismatched"] == []

    perturbed = loads.ServeRun("serve_cg", 5)
    with monkeypatch.context() as patch:
        flipped = _flip_first_dot(patch)
        perturbed.measure(0.0)
    assert flipped
    assert perturbed.outcome().failed == 0  # every job completes...
    perturbed.build_reference()  # ...but not as in cycle mode
    bad = perturbed.outcome()
    assert bad.gate["mismatched"] == [0]
    assert bad.failed == loads.DRAIN_EVERY["serve_cg"]
    assert bad.attempted == bad.failed * loads.BLOCK_EPOCHS["serve_cg"]


def _current(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner.__dict__[attr]


def test_wrappers_are_removed_after_a_traced_run():
    before = [_current(module, path) for module, path, *_ in LAYERS]
    tracer = Tracer()
    with tracer.installed():
        assert all(hasattr(_current(module, path), "__wrapped__")
                   for module, path, *_ in LAYERS)
        loads.ServeRun("serve_mix", 5).measure(0.0, tracer)
    assert [_current(module, path) for module, path, *_ in LAYERS] \
        == before
    recorded = len(tracer.spans)
    assert recorded > loads.DRAIN_EVERY["serve_mix"]
    loads.ServeRun("serve_mix", 5).measure(0.0)
    assert len(tracer.spans) == recorded
