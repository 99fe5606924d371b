"""The two workloads: set-up, timed closed loop, checks, metrics.

Each workload is one client thread driving the program in a closed loop:
the next operation starts only when the previous one has answered.  A run

1. sets up ``Settings.setups`` times (each set-up ends with one warm-up
   round on inputs the timed phase never uses) and keeps the last;
2. runs whole rounds until ``seconds`` of timed work have elapsed (round
   input generation is not timed);
3. checks every output against independent computations (``checks.py``);
4. reports the end-to-end metrics, or with ``trace`` the per-layer ones.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import certify
from repro.fraisse.engine import EmptinessSolver
from repro.service.client import ServiceClient
from repro.service.jobs import VerificationJob
from repro.service.runner import BatchRunner
from repro.undecidable import demonstrate_fact15, demonstrate_fact16, demonstrate_theorem17

import checks
import inputs
import tracing
from fleet import Fleet
from inputs import Op

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Operations every run times, even when ``seconds`` ran out first, so that
#: ``latency_ms.p90`` has at least ten samples beyond it.
MIN_OPS = 100

CACHE_NAMES = (
    "datavalues_abstraction_key",
    "datavalues_database",
    "engine_abstraction_keys",
    "engine_transition_plans",
    "trees_abstraction_key",
    "trees_completable",
    "trees_placements",
    "trees_run_schema",
    "witness_interner",
    "words_abstraction_key",
    "words_rundb",
)


@dataclass(frozen=True)
class Settings:
    """One run's parameters (``run.py`` arguments)."""

    seed: int
    seconds: float
    trace: bool
    #: Set-ups per run; the median is reported as ``setup_s``.
    setups: int


@dataclass
class Record:
    op: Op
    seconds: float
    output: Any = None
    failure: Optional[str] = None


@dataclass
class Round:
    """One timed round: operations, wall time, program CPU time, resident set after it."""

    ops: int
    seconds: float
    cpu_seconds: float
    rss_mb: float


@dataclass
class Outcome:
    """What a run measured, before it is turned into metrics."""

    setups: List[float]
    records: List[Record]
    rounds: List[Round]
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    #: CPU time read in 10 ms ticks (/proc): too coarse per round, so
    #: ``cpu_ms_per_op`` is taken over the whole timed phase.
    cpu_in_ticks: bool = False


def timed_rounds(
    rounds: Iterator[List[Op]],
    execute: Callable[[Op], Any],
    cpu_seconds: Callable[[], float],
    rss_mb: Callable[[], float],
    settings: Settings,
    check: Callable[[List[Record]], None],
) -> Tuple[List[Record], List[Round]]:
    """Whole rounds until ``seconds`` of timed work and ``MIN_OPS`` operations are done.

    ``check`` gets each round's records.  Untraced runs check a round right
    after timing it, so the timed rounds spread over the whole run: the
    machine's speed drifts by up to 25% over tens of seconds, and a run then
    samples more of it.  Traced runs check at the end, so the checks' own
    engine calls stay out of the per-layer spans.
    """
    records: List[Record] = []
    done: List[Round] = []
    elapsed = 0.0
    while elapsed < settings.seconds or len(records) < MIN_OPS:
        ops = next(rounds)
        cpu = cpu_seconds()
        began = time.perf_counter()
        timed = []
        for op in ops:
            start = time.perf_counter()
            output = execute(op)
            timed.append(Record(op, time.perf_counter() - start, output))
        seconds = time.perf_counter() - began
        done.append(Round(len(ops), seconds, cpu_seconds() - cpu, rss_mb()))
        elapsed += seconds
        records += timed
        if not settings.trace:
            check(timed)
    if settings.trace:
        check(records)
    return records, done


def resident_mb(pid: object = "self") -> float:
    """The current resident set (VmRSS) of a process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# -- fleet --------------------------------------------------------------------------------


def _fleet_execute(client: ServiceClient, op: Op):
    if op.kind == "witness":
        return client.witness(op.job.fingerprint)
    if op.kind == "warm-batch":
        return client.submit_batch([target.job for target in op.data["ops"]])
    return client.submit_job(op.job)


def _check_fleet(records: List[Record], checker: checks.VerdictChecker) -> None:
    def verdict_failure(job: VerificationJob, result: Dict[str, Any]) -> Optional[str]:
        if result.get("error"):
            return f"job failed: {result['error']}"
        # The program's single-job answers carry no certificate; the checker
        # derives one with its second-strategy run (witness ops check the
        # program's own certificates).
        return checker.check(
            replace(job, certificate=False),
            result.get("nonempty"),
            bool(result.get("exhausted")),
        )

    first_verdicts: Dict[str, tuple] = {}
    for record in records:
        op, output = record.op, record.output
        if op.kind == "witness":
            record.failure = checks.check_certificate(op.job, output.get("certificate"))
            continue
        if op.kind == "warm-batch":
            entries = output.get("results") or []
            if len(entries) != len(op.data["ops"]):
                record.failure = "batch answered a different number of jobs"
                continue
            for target, entry in zip(op.data["ops"], entries):
                failure = verdict_failure(target.job, entry)
                if failure is None and target.job.certificate and entry.get("nonempty"):
                    if not entry.get("has_certificate"):
                        failure = "warm batch entry lost its certificate"
                if failure is None and entry.get("fingerprint") != target.job.fingerprint:
                    failure = "batch entries out of order"
                record.failure = record.failure or failure
            continue
        result = output.get("result", {})
        record.failure = verdict_failure(op.job, result)
        if record.failure is None and output.get("fingerprint") != op.job.fingerprint:
            record.failure = "answer for another fingerprint"
        if record.failure is None and not op.cold and output.get("served_from") != "store":
            record.failure = f"warm request served from {output.get('served_from')}"
        if record.failure is None and op.job.certificate and result.get("nonempty"):
            if not result.get("has_certificate"):
                record.failure = (KNOWN_FAULT if op.kind == "cold-probe"
                                  else "warm answer lost its certificate")
        verdict = (result.get("nonempty"), result.get("exhausted"))
        first = first_verdicts.setdefault(op.job.fingerprint, verdict)
        if record.failure is None and first != verdict:
            record.failure = "a resubmitted job changed its verdict"


def run_fleet(settings: Settings) -> Outcome:
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    fleet = client = workdir = None
    snapshots = []
    try:
        for _ in range(settings.setups):
            if fleet is not None:
                client.close()
                fleet.stop()
                shutil.rmtree(workdir, ignore_errors=True)
            began = time.perf_counter()
            workdir = Path(tempfile.mkdtemp(prefix="fleet-", dir=OUT_DIR))
            fleet = Fleet(workdir, settings.trace)
            client = ServiceClient(fleet.start(), timeout=120.0, retries=0)
            rounds = inputs.fleet_rounds(settings.seed, first=len(setups))
            warm_up = next(rounds)
            for op in warm_up:
                _fleet_execute(client, op)
            setups.append(time.perf_counter() - began)
        if settings.trace:
            fleet.signal_all(signal.SIGUSR1)
            time.sleep(0.5)  # every process handles the reset before timing starts
        # Checked after the fleet stops: the checks run in this process,
        # which is not the program's.
        records, timed = timed_rounds(
            rounds,
            lambda op: _fleet_execute(client, op),
            fleet.cpu_seconds,
            lambda: max(resident_mb(pid) for pid in fleet.pids()),
            settings,
            check=lambda round_records: None,
        )
        client.close()
        fleet.stop()
        if settings.trace:
            snapshots = [json.loads(fleet.trace_file(role).read_text())
                         for role in fleet.processes]
    finally:
        if client is not None:
            client.close()
        if fleet is not None:
            fleet.stop()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    _check_fleet(records, checks.VerdictChecker())
    return Outcome(setups, records, timed, snapshots, cpu_in_ticks=True)


# -- independent checkers ---------------------------------------------------------------

_REDUCTIONS = {
    "fact15": demonstrate_fact15,
    "fact16": demonstrate_fact16,
    "theorem17": demonstrate_theorem17,
}


def _reference_execute(op: Op):
    if op.kind == "validate":
        return certify.validate_encoded(op.data["certificate"])
    if op.kind == "brute":
        return checks.brute_force(op.job, checks.brute_force_size(op.job))
    data = op.data
    return _REDUCTIONS[op.kind](data["make"](), data["size"])


def _certificate_pool(seed: int) -> List[Dict[str, object]]:
    """Certificates of nonempty verdicts, the same number from each theory."""
    runner = BatchRunner(workers=1)
    wanted = inputs.CERTIFICATE_POOL_PER_FAMILY
    pool: Dict[str, List[Dict[str, object]]] = {f: [] for f in inputs.CERTIFICATE_FAMILIES}
    for job in inputs.certificate_jobs(seed):
        family = job.label.split("-")[0]
        if len(pool[family]) == wanted:
            continue
        _, result = next(runner.execute_indexed([job]))
        if result.certificate is not None:
            pool[family].append({"certificate": result.certificate, "job": job})
        if all(len(entries) == wanted for entries in pool.values()):
            # Interleave the theories so every round validates a mix.
            return [entry for group in zip(*pool.values()) for entry in group]


def run_reference(settings: Settings) -> Outcome:
    if settings.trace:
        tracing.install()
    setups = []
    for _ in range(settings.setups):
        began = time.perf_counter()
        pool = _certificate_pool(inputs.derive(settings.seed, "certificates", len(setups)))
        rounds = inputs.reference_rounds(settings.seed, pool, first=len(setups))
        for op in next(rounds):
            _reference_execute(op)
        setups.append(time.perf_counter() - began)
    engine_verdicts: Dict[str, tuple] = {}
    snapshots = []

    def check(round_records: List[Record]) -> None:
        if settings.trace:
            snapshots.append(tracing.snapshot(os.getpid(), "benchmark"))
        for record in round_records:
            op = record.op
            if op.kind == "validate":
                if record.output.get("witness_size") is None:
                    record.failure = "validator report without a witness"
                else:
                    record.failure = checks.check_certificate(
                        op.data["job"], op.data["certificate"]
                    )
            elif op.kind == "brute":
                if op.job.fingerprint not in engine_verdicts:
                    result = EmptinessSolver(
                        op.job.theory, max_configurations=op.job.max_configurations,
                        strategy=op.job.strategy,
                    ).check(op.job.system)
                    engine_verdicts[op.job.fingerprint] = (result.nonempty, result.exhausted)
                record.failure = checks.check_brute_force(
                    record.output, engine_verdicts[op.job.fingerprint]
                )
            else:
                record.failure = checks.check_reduction(op.data, record.output)

    if settings.trace:
        tracing.reset()
    records, timed = timed_rounds(
        rounds, _reference_execute, time.process_time, resident_mb, settings, check
    )
    return Outcome(setups, records, timed, snapshots)


# -- metrics --------------------------------------------------------------------------------


def _p50_ms(seconds: List[float]) -> float:
    return 1000.0 * statistics.median(seconds)


def _p90_ms(seconds: List[float]) -> float:
    return 1000.0 * statistics.quantiles(seconds, n=10)[8]


def end_to_end(outcome: Outcome, import_seconds: float) -> Dict[str, float]:
    latencies = [record.seconds for record in outcome.records]
    cold = [record.seconds for record in outcome.records if record.op.cold]
    warm = [record.seconds for record in outcome.records if not record.op.cold]
    return {
        "setup_s": import_seconds + statistics.median(outcome.setups),
        "ops_per_s": statistics.median(r.ops / r.seconds for r in outcome.rounds),
        "latency_ms.p50": _p50_ms(latencies),
        "latency_ms.p90": _p90_ms(latencies),
        "cold_ms.p50": _p50_ms(cold),
        "warm_ms.p50": _p50_ms(warm),
        "cpu_ms_per_op": 1000.0 * (
            sum(r.cpu_seconds for r in outcome.rounds) / sum(r.ops for r in outcome.rounds)
            if outcome.cpu_in_ticks
            else statistics.median(r.cpu_seconds / r.ops for r in outcome.rounds)
        ),
    }


def per_layer(outcome: Outcome) -> Dict[str, float]:
    metrics = tracing.layer_metrics(outcome.snapshots, len(outcome.records), CACHE_NAMES)
    metrics["memory.rss_mb.p50"] = statistics.median(r.rss_mb for r in outcome.rounds)
    return metrics


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "cold_ms.p50": "ms",
    "warm_ms.p50": "ms",
    "cpu_ms_per_op": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms.p50"):
        return "ms"
    if name.endswith("configs_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "brute.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_op"):
        return "1/op"
    if name == "certify.kb.p50":
        return "KiB"
    if name == "memory.rss_mb.p50":
        return "MB"
    return "count"


PER_LAYER_UNITS = {
    name: layer_unit(name)
    for name in [*tracing.layer_metrics([], 1, CACHE_NAMES), "memory.rss_mb.p50"]
}

#: The failure every fleet round shows until the coordinator keeps the
#: certificate flag of forwarded results (``JobResult.from_dict`` drops it).
KNOWN_FAULT = "has_certificate false for a certified nonempty verdict"


WORKLOADS: Dict[str, Callable[[Settings], Outcome]] = {
    "fleet-mixed": run_fleet,
    "reference-check": run_reference,
}
