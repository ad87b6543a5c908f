"""Pinned bytes of the runtime's Chrome traces and metrics JSON.

Every other replay test compares two runs of the same tree, so a
change to the executor that moves one trace event or one float in the
metrics would pass them all.  These tests pin the sha256 of the Chrome
trace JSON and of the metrics JSON of a few small ``sim_mode="fast"``
runs to fixed values, so any such change fails here.  Together the
runs cover every branch of the dispatch path: batches, 12-chassis
gangs, gang degradation under crashes, verification failures, aborted
bitstream loads, work stealing and bounded metrics.

The digests must only change with an intended change of behavior;
regenerate them with ``python tests/test_dispatch_golden.py``.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from tempfile import TemporaryDirectory

import numpy as np
import pytest

from repro.cli import main
from repro.obs import TraceRecorder, chrome_trace_json
from repro.runtime import BlasRequest, BlasRuntime
from repro.serve.server import BlasService, ServeConfig
from repro.workloads import multi_tenant_mix

#: CLI replays, pinned through ``--json`` stdout and ``--trace-out``.
CLI_RUNS = {
    "gemm_batch": ["runtime", "--mix", "gemm", "--jobs", "40"],
    "gang_12_chassis": ["runtime", "--chassis", "12", "--blades", "6",
                        "--max-gang", "72", "--mix", "gemm",
                        "--gemm-n", "512", "--gemm-m", "32",
                        "--jobs", "12"],
    "fault_storm": ["faults", "--mix", "mixed", "--jobs", "60",
                    "--max-gang", "4", "--fault-seed", "1"],
}

#: name -> (sha256 of the Chrome trace JSON, sha256 of the metrics
#: JSON).  Serve runs pin ``BlasService.metrics()`` and the epoch
#: runtimes' traces are not recorded, so their trace digest is None.
GOLDEN = {
    "gemm_batch": (
        "ca11745804551663ebd5771d16dc3d9d4943f34a1cbb8faef430877640d107f6",
        "be55570ef9e8e8ce60c7bf67042c3fc104747a4f193e3bb5056e129d6358cfc4"),
    "gang_12_chassis": (
        "b4ea7bcec6ccda1bb52fcd5b96419490ab75e5ae9d122db309ee338561076215",
        "6fb0f787c54556e6eea9129f23b02b31475536c55e3e2d81d42619b9fb84c674"),
    "fault_storm": (
        "983f7319bbbe251041b7a4975b74e6eb5f2fac2c716e7810cbbd670f13aed57e",
        "56ba8066be510f0aac97792dc22aad91b79d5f88c6b70165f4741e6d5a3e054f"),
    "work_steal": (
        "6ddc3c05630c81336921131088a4d267a5b97fe902cd7a743afe3fea5bba5094",
        "0901122e8450407b8dcdd4a5c5b2920d544081eb83448fc75786b28663217664"),
    "bounded_tenants": (
        "b1236b601106f0e769cddc9f704fdfbb0b2c01ed09360644e01863a43617cdf5",
        "8065a22a2c65f8c99d040c1358ed8263c73c37898f6575f536d6e3b4c7856c60"),
    "serve_exact": (
        None,
        "299b0793da04b07226fe69f507fec178a381bc49871ce480468c2a3a730492fd"),
    "serve_bounded": (
        None,
        "5eddbef159d73518ecba55f2fc608108055c350d5e8e57312419261a39232a75"),
}

#: Trace events that must appear in at least one pinned trace, so
#: that every branch of the dispatch path is under a digest.
REQUIRED_EVENTS = ("batch.formed", "gang.formed", "gang.degraded",
                   "job.verify_failed", "reconfig:aborted",
                   "work.stolen")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_run(argv):
    with TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(argv + ["--sim-mode", "fast", "--json",
                         "--trace-out", path])
        with open(path) as handle:
            return handle.read(), out.getvalue()


def _runtime_run(runtime, requests):
    for request in requests:
        runtime.submit(request)
    metrics = runtime.run()
    return chrome_trace_json(runtime.recorder), metrics.to_json()


def _work_steal():
    # One blade per chassis and every job pinned to chassis 0: the
    # idle chassis-1 blade steals the overflow.
    rng = np.random.default_rng(20050512)
    runtime = BlasRuntime(chassis=2, blades=1, batching=False,
                          recorder=TraceRecorder(), sim_mode="fast")
    return _runtime_run(runtime, [
        BlasRequest("dot", (rng.standard_normal(4096),
                            rng.standard_normal(4096)),
                    home_chassis=0)
        for _ in range(4)])


def _bounded_tenants():
    rng = np.random.default_rng(5)
    runtime = BlasRuntime(chassis=1, blades=2, bounded_metrics=True,
                          recorder=TraceRecorder(), sim_mode="fast")
    tenants = ("astro", "climate")
    return _runtime_run(runtime, [
        BlasRequest("dot", (rng.standard_normal(128),
                            rng.standard_normal(128)),
                    tenant=tenants[i % 2])
        for i in range(8)])


def _serve(bounded):
    service = BlasService(ServeConfig(bounded_metrics=bounded,
                                      sim_mode="fast"))
    stream = multi_tenant_mix(24, np.random.default_rng(3),
                              arrival_rate=2e4)
    for index, (at, tenant, spec) in enumerate(stream):
        service.handle({"op": "submit", "id": index, "tenant": tenant,
                        "at": at, "call": spec})
        if index % 12 == 11:
            service.handle({"op": "drain"})
    return None, json.dumps(service.metrics(), sort_keys=True)


RUNS = {
    **{name: (lambda argv=argv: _cli_run(argv))
       for name, argv in CLI_RUNS.items()},
    "work_steal": _work_steal,
    "bounded_tenants": _bounded_tenants,
    "serve_exact": lambda: _serve(False),
    "serve_bounded": lambda: _serve(True),
}


@pytest.fixture(scope="module")
def outputs():
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digests_pinned(outputs, name):
    trace, metrics = outputs[name]
    want_trace, want_metrics = GOLDEN[name]
    assert (None if trace is None else _sha(trace)) == want_trace
    assert _sha(metrics) == want_metrics


def test_pinned_traces_cover_every_dispatch_branch(outputs):
    names = set()
    aborting_crash = False
    for trace, _ in outputs.values():
        if trace is None:
            continue
        for event in json.loads(trace)["traceEvents"]:
            names.add(event["name"])
            args = event.get("args", {})
            if (event["name"] == "fault.injected"
                    and args.get("kind") == "blade_crash"
                    and "aborted_jobs" in args):
                aborting_crash = True
    missing = [name for name in REQUIRED_EVENTS if name not in names]
    assert not missing
    assert aborting_crash


if __name__ == "__main__":
    digests = {}
    for name, run in RUNS.items():
        trace, metrics = run()
        digests[name] = (None if trace is None else _sha(trace),
                         _sha(metrics))
    json.dump(digests, sys.stdout, indent=4)
    print()
