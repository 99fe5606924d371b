"""Seeded inputs of the two workloads, one round at a time.

Every workload repeats *rounds*: a fixed list of operation kinds, filled
with fresh seeded inputs.  A run attempts whole rounds only, so the mix of
operations (and so the share of any operation that fails every time) is
the same in every run whatever its length or seed.  Round ``i`` of a seed is
the same in every run; the set-ups of a run warm up on rounds ``0, 1, ...``
and the timed phase starts after them.

Jobs are the program's own generated workloads (``repro.workloads``) and
Example 1 of the paper.  A job whose fingerprint already occurred in the
run gets its engine cap raised by one until it is new: the program has then
never decided it, and its verdict cannot change.  Every job here decides far
below its cap, except those the certificate pool is drawn from; the pool
keeps only their nonempty verdicts, which a higher cap cannot undo.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.library import odd_red_cycle_system
from repro.relational import COLORED_GRAPH_SCHEMA, AllDatabasesTheory
from repro.service.jobs import VerificationJob
from repro.undecidable import blocked_machine, counting_machine, diverging_machine
from repro.workloads import generate_jobs

#: The strategy each verdict is re-derived with.  Never bfs: on nonempty
#: two-register jobs it explores far more than the others (25x on the
#: library's triangle system).
SECOND_STRATEGY = {"bfs": "dfs", "dfs": "priority", "priority": "dfs"}

FLEET_FAMILIES = ("hom", "word", "tree", "data")
CERTIFICATE_FAMILIES = ("relational", "hom", "word", "tree", "data")
VALIDATIONS_PER_ROUND = 8
BRUTE_FORCE_PER_ROUND = 3
BRUTE_FORCE_FAMILIES = ("relational", "hom", "data")
CERTIFICATE_POOL_PER_FAMILY = 8
#: Engine cap of the jobs the certificate pool is drawn from.  Nine in ten
#: nonempty light jobs decide within 10 configurations under dfs, while
#: empty ones can explore hundreds (up to 0.9 s each): a cap keeps the
#: set-up's cost from hanging on how many such jobs a seed draws.
CERTIFICATE_POOL_CAP = 16

#: Reductions of Section 6: (name, database size, interpreter capacity).
#: A demonstration accepts exactly when the counter machine halts with every
#: counter at most the capacity (measured against the encodings: a word of
#: length L holds counters up to L-1, a caterpillar of height h up to h, a
#: pattern chain of length c up to c-1).
REDUCTIONS = (("fact15", 5, 4), ("fact16", 1, 1), ("theorem17", 2, 1))
INTERPRETER_STEPS = 10_000


def derive(seed: int, *parts: object) -> int:
    """A sub-seed, stable across processes (no use of ``hash``)."""
    return random.Random(f"{seed}/" + "/".join(str(p) for p in parts)).getrandbits(48)


@dataclass
class Op:
    """One operation of a round."""

    kind: str
    job: Optional[VerificationJob] = None
    #: Free-form payload for checks that are not engine jobs.
    data: Dict[str, object] = field(default_factory=dict)
    cold: bool = True


class JobSource:
    """Fresh jobs of one kind, deduplicated by fingerprint within a run."""

    def __init__(self, seed: int, name: str, seen: Set[str], make) -> None:
        self._seed = seed
        self._name = name
        self._seen = seen
        self._make = make
        self._buffer: List[VerificationJob] = []
        self._chunk = 0

    def next(self, certificate: bool) -> VerificationJob:
        if not self._buffer:
            self._buffer = list(self._make(derive(self._seed, self._name, self._chunk)))
            self._chunk += 1
        return fresh(replace(self._buffer.pop(0), certificate=certificate), self._seen)


def fresh(job: VerificationJob, seen: Set[str]) -> VerificationJob:
    """``job`` with its cap raised until its fingerprint is not in ``seen``."""
    while job.fingerprint in seen:
        job = replace(job, max_configurations=job.max_configurations + 1)
    seen.add(job.fingerprint)
    return job


def light(families: Tuple[str, ...], **overrides: object):
    """Jobs of the light profile; ``overrides`` replace the generator's fields."""

    def make(seed: int) -> List[VerificationJob]:
        return [replace(job, **overrides)
                for job in generate_jobs(16, seed=seed, families=families)]

    return make


def probe_job(round_index: int) -> VerificationJob:
    """The seed-independent nonempty job of every fleet round (Example 1).

    Its cap carries the round index, so each round submits a job the
    keyspace has not seen; the verdict is nonempty at any cap.
    """
    return VerificationJob(
        system=odd_red_cycle_system(),
        theory=AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
        strategy="bfs",
        max_configurations=20_000 + round_index,
        label=f"probe-{round_index:04d}",
        certificate=True,
    )


# -- rounds ---------------------------------------------------------------------------


def fleet_rounds(seed: int, first: int = 0) -> Iterator[List[Op]]:
    """Cold submissions, warm resubmissions, witness fetches, a warm batch.

    Rounds before ``first`` are generated (so every round keeps its jobs)
    but not yielded; the first yielded round refers back to nothing, since a
    fresh fleet has not seen the rounds before it.
    """
    seen: Set[str] = set()
    source = JobSource(seed, "fleet", seen, light(FLEET_FAMILIES))
    previous: Optional[List[Op]] = None
    round_index = 0
    while True:
        first_cold = Op("cold", source.next(certificate=False))
        second_cold = Op("cold", source.next(certificate=False))
        probe = Op("cold-probe", probe_job(round_index))
        ops = [first_cold, second_cold, probe]
        earlier = previous if previous is not None else ops
        for target in (first_cold, second_cold, probe, earlier[0]):
            ops.append(Op("warm", target.job, cold=False))
        ops.append(Op("witness", probe.job, cold=False))
        ops.append(Op("witness", earlier[2].job, cold=False))
        batch = [first_cold, second_cold, probe, earlier[2]]
        ops.append(Op("warm-batch", None, cold=False, data={"ops": batch}))
        previous = ops if round_index >= first else None
        round_index += 1
        if round_index > first:
            yield ops


def reference_rounds(
    seed: int, certificates: List[Dict[str, object]], first: int = 0
) -> Iterator[List[Op]]:
    """Certificate validations, brute-force searches, bounded reductions.

    Each reduction cycles through all six machines in a seeded order, so
    every six rounds hold the same machine mix whatever the seed.  Rounds
    before ``first`` are generated but not yielded, as in ``fleet_rounds``.
    An operation is warm when a yielded round already held its input: a
    certificate validated before, or a reduction of the same machine.
    Brute-force jobs are always fresh.
    """
    seen: Set[str] = set()
    brute = JobSource(seed, "brute", seen, light(BRUTE_FORCE_FAMILIES))
    machines = [(f"counting({n})", functools.partial(counting_machine, n)) for n in range(4)]
    machines += [("diverging", diverging_machine), ("blocked", blocked_machine)]
    random.Random(derive(seed, "machines")).shuffle(machines)
    handled: Set[object] = set()
    cursor = 0
    round_index = 0
    while True:
        ops = []
        round_inputs: List[object] = []
        for _ in range(VALIDATIONS_PER_ROUND):
            index = cursor % len(certificates)
            ops.append(Op("validate", data=certificates[index], cold=index not in handled))
            round_inputs.append(index)
            cursor += 1
        for _ in range(BRUTE_FORCE_PER_ROUND):
            ops.append(Op("brute", brute.next(certificate=False)))
        for offset, (name, size, capacity) in enumerate(REDUCTIONS):
            machine_name, make = machines[(round_index + offset) % len(machines)]
            ops.append(Op(name, data={"machine": machine_name, "make": make,
                                      "size": size, "capacity": capacity},
                          cold=(name, machine_name) not in handled))
            round_inputs.append((name, machine_name))
        round_index += 1
        if round_index > first:
            handled.update(round_inputs)
            yield ops


def certificate_jobs(seed: int) -> Iterator[VerificationJob]:
    """Certificate-requesting jobs of all five theories, round-robin, under dfs.

    Jobs are capped at ``CERTIFICATE_POOL_CAP`` configurations; the pool
    keeps the ones that come out nonempty.
    """
    seen: Set[str] = set()
    sources = [
        JobSource(seed, f"certificates-{family}", seen,
                  light((family,), strategy="dfs", max_configurations=CERTIFICATE_POOL_CAP))
        for family in CERTIFICATE_FAMILIES
    ]
    while True:
        for source in sources:
            yield source.next(certificate=True)
