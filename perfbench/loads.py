"""The three workloads: seeded inputs, timed client loops, result gates.

``serve_mix`` and ``serve_cg`` are one closed-loop client replaying a
seeded stream in process through ``BlasService.handle``, with every
message and response passed through ``repro.serve.protocol``
encode/decode as on the wire, and a ``drain`` after every
:data:`DRAIN_EVERY` submissions (per workload).  ``gang_gemm`` runs
72-blade gemms one after another, each on a fresh ``BlasRuntime``.

Inputs are built during set-up.  Timed regions hold only calls into
the system; hashing results and the correctness gates run between or
after them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.runtime.executor import BlasRuntime
from repro.runtime.job import BlasRequest, JobState
from repro.serve import protocol
from repro.serve.loadgen import LoadgenConfig
from repro.serve.server import BlasService, ServeConfig
from repro.workloads import DEFAULT_TENANTS, multi_tenant_mix

from spans import Tracer

WORKLOADS = ("serve_mix", "serve_cg", "gang_gemm")

#: Submissions per epoch: the client sends ``drain`` after each slice.
#: A cg step costs about five mixed requests, so ``serve_cg`` drains
#: about five times as often and its epochs take about as long as
#: ``serve_mix``'s: each is a short timed step (see ``ServeRun``).  48
#: is a multiple of the four grids and three tenants, so every seed's
#: epochs hold the same work.
DRAIN_EVERY = {"serve_mix": 250, "serve_cg": 48}
#: Virtual arrival rate of both serve streams (the loadgen default).
ARRIVAL_RATE = LoadgenConfig().arrival_rate
CG_GRIDS = (16, 24, 32, 48)
TENANTS = tuple(sorted(DEFAULT_TENANTS))
#: gang_gemm shape: 72 blades over all 12 chassis, RapidArray
#: crossings charged.
GANG_N, GANG_K, GANG_M = 2304, 8, 32
GANG_RUNTIME = {"chassis": 12, "blades": 6, "max_gang": 72,
                "sim_mode": "fast"}
#: Residual bound of a gang result against NumPy, relative to the
#: largest reference magnitude (float64 sums of n products).
GANG_RTOL = 1e-10
#: Epochs of the seeded stream one serve round replays: at most about
#: a second of work, so a run gets many rounds, and few enough for the
#: gate to replay them all in cycle mode.  Every ``serve_cg`` epoch
#: holds the same work, so one is enough, and a short round gives a
#: run more samples of it.
BLOCK_EPOCHS = {"serve_mix": 4, "serve_cg": 1}

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

clock = time.perf_counter  # repro: allow(LINT001)


@dataclass
class Outcome:
    """What one run measured and what its gate found.

    A run repeats one fixed block of work in rounds.  Each step of the
    block (a serve epoch, a gemm) keeps its best time over the rounds,
    and ``best_s`` is the sum of those; so is each operation's latency
    in ``latencies_s``.  Throughput is ``ops`` (operations of one
    round) over ``best_s``.  ``epoch_hashes`` are the first round's
    epoch hashes (serve) or one result digest per gemm (gang)."""

    ops: int = 0
    best_s: float = 0.0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    rounds_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    rejects: int = 0
    gate: Dict[str, Any] = field(default_factory=dict)
    epoch_hashes: List[str] = field(default_factory=list)


# -- serve workloads --------------------------------------------------------
class EpochStream:
    """A seeded request stream, generated one epoch at a time so a run
    only pays for the requests it sends."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in ("serve_mix", "serve_cg"):
            raise ValueError(f"not a serve workload: {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.clock = 0.0
        self.sent = 0

    def next_epoch(self) -> List[Dict[str, Any]]:
        """The next :data:`DRAIN_EVERY` submit messages."""
        size = DRAIN_EVERY[self.workload]
        if self.workload == "serve_mix":
            chunk = [(self.clock + at, tenant, spec)
                     for at, tenant, spec in multi_tenant_mix(
                         size, self.rng,
                         arrival_rate=ARRIVAL_RATE)]
        else:
            chunk = []
            at = self.clock
            for index in range(self.sent, self.sent + size):
                if index % len(CG_GRIDS) == 0:
                    # Every grid once per len(CG_GRIDS) calls, in seeded
                    # order: the seed moves the order, not the work.
                    self.grids = self.rng.permutation(CG_GRIDS)
                at += float(self.rng.exponential(1.0 / ARRIVAL_RATE))
                chunk.append((at, TENANTS[index % len(TENANTS)], {
                    "operation": "cg",
                    "n": int(self.grids[index % len(CG_GRIDS)]),
                    "seed": int(self.rng.integers(0, 2**31)),
                    "priority": int(self.rng.integers(0, 3))}))
        self.clock = chunk[-1][0]
        messages = [{"op": "submit", "id": self.sent + i, "tenant": tenant,
                     "at": at, "call": spec}
                    for i, (at, tenant, spec) in enumerate(chunk)]
        self.sent += len(messages)
        return messages


def epoch_hash(results: List[Dict[str, Any]]) -> str:
    """Digest of one drain's result entries (value digest, virtual
    latency and wait, charged cycles, state).  ``seq`` is left out: it
    counts admissions since the service started, so an epoch replayed
    on its own gets different numbers for the same requests."""
    digest = hashlib.sha256()
    for entry in results:
        digest.update(json.dumps(
            {k: v for k, v in entry.items() if k != "seq"},
            sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]


def ask(service: BlasService, message: Dict[str, Any]) -> Dict[str, Any]:
    """One request/response round trip through the wire codec."""
    request = protocol.decode(protocol.encode(message))
    return protocol.decode(protocol.encode(service.handle(request)))


def replay_epoch(messages: List[Dict[str, Any]],
                 sim_mode: str = "cycle") -> str:
    """Hash of one epoch replayed alone on a fresh service."""
    service = BlasService(ServeConfig(sim_mode=sim_mode))
    for message in messages:
        ask(service, message)
    return epoch_hash(ask(service, {"op": "drain"})["results"])


def load_reference(workload: str, seed: int) -> List[str]:
    """Committed cycle-mode epoch hashes for this seed (may be empty)."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed), [])


class ServeRun:
    """One serve run: the seed's first :data:`BLOCK_EPOCHS` epochs,
    replayed in rounds.  Set-up warms the process-level caches with one
    epoch on a throwaway service."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        stream = EpochStream(workload, seed)
        self.block = [stream.next_epoch()
                      for _ in range(BLOCK_EPOCHS[workload])]
        warm = BlasService(ServeConfig())
        for message in self.block[0]:
            ask(warm, message)
        ask(warm, {"op": "drain"})
        #: Per round: epoch hashes, epoch wall times, request latencies.
        self._hashes: List[List[str]] = []
        self._epochs_s: List[List[float]] = []
        self._latencies: List[List[float]] = []
        #: (round, request id) of requests rejected or not completed.
        self._failed: Set[Tuple[int, int]] = set()
        self._rejects = 0
        self._cycle: Optional[List[str]] = None

    def measure(self, seconds: float,
                tracer: Optional[Tracer] = None) -> None:
        """Replay the block on a fresh service per round until
        ``seconds`` of rounds have run; later calls add rounds."""
        spent = 0.0
        while True:
            round_index = len(self._hashes)
            service = BlasService(ServeConfig())
            latencies, hashes, epochs_s = [], [], []
            for index, messages in enumerate(self.block):
                submitted = []
                start = clock()
                for message in messages:
                    if tracer is not None:
                        tracer.trace_id = f"{round_index}.{message['id']}"
                    submitted.append(clock())
                    reply = ask(service, message)
                    if reply["type"] != "accepted":
                        self._rejects += 1
                        self._failed.add((round_index, message["id"]))
                if tracer is not None:
                    tracer.trace_id = f"{round_index}.drain{index}"
                reply = ask(service, {"op": "drain"})
                end = clock()
                epochs_s.append(end - start)
                latencies.extend(end - t for t in submitted)
                for entry in reply["results"]:
                    if entry["state"] != JobState.DONE.value:
                        self._failed.add((round_index, entry["id"]))
                hashes.append(epoch_hash(reply["results"]))
            self._hashes.append(hashes)
            self._epochs_s.append(epochs_s)
            self._latencies.append(latencies)
            spent += sum(epochs_s)
            if spent >= seconds:
                break

    def reference_steps(self) -> List[Callable[[], None]]:
        """The gate's cycle-mode replay, one step per epoch of the
        block (slow; the worker runs the steps between timed
        stretches)."""
        self._cycle = []
        return [functools.partial(self._replay, messages)
                for messages in self.block]

    def _replay(self, messages: List[Dict[str, Any]]) -> None:
        assert self._cycle is not None
        self._cycle.append(replay_epoch(messages))

    def build_reference(self) -> None:
        """Replay every epoch of the block in cycle mode."""
        for step in self.reference_steps():
            step()

    def outcome(self) -> Outcome:
        """Timings plus the correctness gate.  Round 0's epoch hashes
        must equal the committed cycle-mode reference where this seed
        has one and the cycle-mode replay where it was built; every
        later round must hash exactly like round 0.  A mismatched
        epoch fails all its requests."""
        first = self._hashes[0]
        reference = load_reference(self.workload, self.seed)
        bad = {i for i, ref in enumerate(reference[:len(first)])
               if first[i] != ref}
        if self._cycle is not None:
            bad.update(i for i, ref in enumerate(self._cycle)
                       if first[i] != ref)
        failed = set(self._failed)
        for round_index, hashes in enumerate(self._hashes):
            for index, (got, want) in enumerate(zip(hashes, first)):
                if index in bad or got != want:
                    failed.update((round_index, m["id"])
                                  for m in self.block[index])
        per_round = sum(len(messages) for messages in self.block)
        out = Outcome(
            ops=per_round - len({i for _, i in self._failed}),
            best_s=sum(map(min, zip(*self._epochs_s))),
            attempted=per_round * len(self._hashes),
            failed=len(failed),
            rounds_s=[sum(epochs) for epochs in self._epochs_s],
            latencies_s=list(map(min, zip(*self._latencies))),
            rejects=self._rejects, epoch_hashes=first)
        out.completed = out.attempted - len(self._failed)
        out.gate = {"rounds": len(self._hashes), "epochs": len(first),
                    "committed_reference": min(len(reference),
                                               len(first)),
                    "cycle_replayed": len(self._cycle or []),
                    "mismatched": sorted(bad),
                    "rounds_disagree": sum(h != first
                                           for h in self._hashes)}
        return out


# -- gang workload ----------------------------------------------------------
class GangRun:
    """One gang run: the operands, and one gemm per round, each on a
    fresh runtime (set-up builds the first)."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.A = rng.standard_normal((GANG_N, GANG_N))
        self.B = rng.standard_normal((GANG_N, GANG_N))
        self.runtime = BlasRuntime(**GANG_RUNTIME)
        self._rounds_s: List[float] = []
        self._digests: List[str] = []
        self._drift: List[int] = []
        self._first: Any = None
        self._residual: Optional[float] = None

    def measure(self, seconds: float,
                tracer: Optional[Tracer] = None) -> None:
        """Run gemms until ``seconds`` of them have run; later calls
        add gemms."""
        spent = 0.0
        while True:
            if tracer is not None:
                tracer.trace_id = f"gemm{len(self._rounds_s)}"
            start = clock()
            job = self.runtime.submit(BlasRequest(
                "gemm", (self.A, self.B), k=GANG_K, m=GANG_M))
            self.runtime.run()
            end = clock()
            self._rounds_s.append(end - start)
            spent += end - start
            if job.state is JobState.DONE:
                self._drift.append(job.charged_cycles
                                   - job.plan.predicted_cycles)
                self._digests.append(hashlib.sha256(
                    np.ascontiguousarray(job.result).tobytes()
                ).hexdigest()[:16])
                if self._first is None:
                    self._first = job.result
            del job
            self.runtime = BlasRuntime(**GANG_RUNTIME)
            if spent >= seconds:
                break

    def reference_steps(self) -> List[Callable[[], None]]:
        return [self.build_reference]

    def build_reference(self) -> None:
        """Residual of the first result against NumPy ``A @ B``."""
        if self._first is None:
            return
        reference = self.A @ self.B
        self._residual = (
            float(np.max(np.abs(self._first - reference)))
            / (float(np.max(np.abs(reference))) + 1.0))

    def outcome(self) -> Outcome:
        """Timings plus the correctness gate: the residual (where it
        was built) within :data:`GANG_RTOL`, identical bits on every
        gemm and charged cycles equal to the plan (0 drift).  Any miss
        fails every gemm of the run."""
        attempted = len(self._rounds_s)
        completed = len(self._digests)
        residual = self._residual
        wrong = ((residual is not None
                  and not (np.isfinite(residual) and residual <= GANG_RTOL))
                 or len(set(self._digests)) > 1 or any(self._drift))
        best = min(self._rounds_s)
        return Outcome(
            ops=int(completed == attempted), best_s=best,
            completed=completed, attempted=attempted,
            failed=attempted if wrong else attempted - completed,
            rounds_s=list(self._rounds_s), latencies_s=[best],
            epoch_hashes=list(self._digests),
            gate={"residual": residual, "rtol": GANG_RTOL,
                  "drift_cycles": self._drift,
                  "distinct_results": len(set(self._digests))})


def make_run(workload: str, seed: int) -> Any:
    if workload == "gang_gemm":
        return GangRun(seed)
    return ServeRun(workload, seed)
