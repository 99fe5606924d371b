"""Checks of the program's outputs against independent computations.

They run after the timed phase and count toward no metric.  Each returns
``None`` when the output is right, else a one-line reason; an operation
with a reason counts as failed.

* A nonempty verdict: its certificate passes ``repro.certify.validate_encoded``
  (which shares no code with the engine, its plans or its caches) and
  certifies the job's own system and theory.
* An exhausted-empty verdict: bounded brute force (``repro.baselines``)
  under the theory's own ``membership`` finds no accepting run, wherever
  the schema is relational and small enough to enumerate.
* Every verdict: the engine agrees under a second search strategy.
* A reduction answer: it equals what the counter machine's interpreter
  says (halts within the bound, with counters that fit the database).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro import certify
from repro.baselines import BruteForceSolver
from repro.baselines.enumeration import count_databases_of_size
from repro.fraisse.engine import EmptinessSolver
from repro.service.jobs import VerificationJob

from inputs import INTERPRETER_STEPS, SECOND_STRATEGY

#: Upper bound on sum(databases of size i * valuations of size i) a brute
#: force check may enumerate; the largest size within it is searched.
BRUTE_FORCE_BUDGET = 1_200
BRUTE_FORCE_MAX_SIZE = 3


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def brute_force_size(job: VerificationJob) -> int:
    """The largest domain size exhaustively searched for ``job`` (0: none)."""
    schema = job.system.schema
    if not schema.is_relational:
        return 0
    registers = len(job.system.registers)
    cost, size = 0, 0
    for candidate in range(1, BRUTE_FORCE_MAX_SIZE + 1):
        cost += count_databases_of_size(schema, candidate) * candidate ** registers
        if cost > BRUTE_FORCE_BUDGET:
            break
        size = candidate
    return size


def brute_force(job: VerificationJob, size: int):
    """``BruteForceSolver`` over every database up to ``size`` in the theory's class."""
    return BruteForceSolver(membership=job.theory.membership).check(job.system, max_size=size)


def check_certificate(job: VerificationJob, encoded: Optional[str]) -> Optional[str]:
    if not encoded:
        return "nonempty verdict without a certificate"
    try:
        certify.validate_encoded(encoded)
        decoded = certify.decode_certificate(encoded)
    except Exception as exc:  # noqa: BLE001 - any validator complaint is a failure
        return f"certificate rejected: {exc}"
    spec = job.to_spec()
    if _canonical(decoded["system"]) != _canonical(spec["system"]):
        return "certificate is for another system"
    if _canonical(decoded["theory"]) != _canonical(spec["theory"]):
        return "certificate is for another theory"
    return None


class VerdictChecker:
    """Checks engine verdicts; memoised per fingerprint (warm ops repeat jobs)."""

    def __init__(self) -> None:
        self._done: Dict[str, Optional[str]] = {}

    def check(
        self,
        job: VerificationJob,
        nonempty: Optional[bool],
        exhausted: bool,
        certificate: Optional[str] = None,
    ) -> Optional[str]:
        key = f"{job.fingerprint}/{nonempty}/{exhausted}/{certificate is not None}"
        if key not in self._done:
            self._done[key] = self._check(job, nonempty, exhausted, certificate)
        return self._done[key]

    def _check(self, job, nonempty, exhausted, certificate) -> Optional[str]:
        if nonempty is None:
            return "no verdict"
        if not exhausted:
            return "undecided within the engine cap"
        fresh = VerificationJob.from_spec(job.to_spec())
        second = EmptinessSolver(
            fresh.theory,
            max_configurations=job.max_configurations,
            strategy=SECOND_STRATEGY[job.strategy],
        ).check(fresh.system)
        if not second.exhausted or second.nonempty != nonempty:
            return (
                f"verdict {nonempty} but {second.statistics.strategy} says "
                f"{second.nonempty} (exhausted {second.exhausted})"
            )
        if nonempty:
            if certificate is None and not job.certificate:
                certificate = certify.encode_certificate(
                    certify.build_certificate(fresh.system, fresh.theory, second)
                )
            return check_certificate(job, certificate)
        size = brute_force_size(job)
        if size:
            found = brute_force(fresh, size)
            if found is not None and found.nonempty:
                return f"empty verdict but brute force found a run on {found.witness_database}"
        return None


def check_reduction(data: Dict[str, object], accepted: bool) -> Optional[str]:
    machine = data["make"]()
    halted = machine.halts_within(INTERPRETER_STEPS)
    fits = machine.max_counter_value(INTERPRETER_STEPS) <= data["capacity"]
    expected = halted and fits
    if accepted != expected:
        return (
            f"{data['machine']} at size {data['size']}: reduction says {accepted}, "
            f"interpreter says {expected}"
        )
    return None


def check_brute_force(found, checker_verdict) -> Optional[str]:
    """A brute-force answer against the engine's exhausted verdict."""
    nonempty, exhausted = checker_verdict
    if not exhausted:
        return "engine undecided within its cap"
    if found.nonempty and not nonempty:
        return "brute force found a run the engine calls empty"
    return None
