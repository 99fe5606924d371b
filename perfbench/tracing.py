"""Spans and counters recorded around the program's public entry points.

Nothing here changes the program: :func:`install` replaces a fixed list of
functions and methods with timing wrappers, from outside.  A wrapped call
records a span (name, start, end, parent span, job fingerprint when the
arguments carry one) in memory; per-call hot paths such as
``abstraction_key`` are folded into a call count and a total time instead.
:func:`snapshot` returns everything recorded so far as one JSON-ready dict;
:func:`layer_metrics` turns the merged snapshots of every process of a run
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

_now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Recorder:
    """In-memory spans plus aggregated hot-path counters."""

    def __init__(self) -> None:
        self.local = threading.local()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.spans: List[Dict[str, Any]] = []
            self.hot: Dict[str, List[float]] = {}
            self.counts: Dict[str, float] = {}

    def stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add_hot(self, name: str, seconds: float) -> None:
        with self.lock:
            entry = self.hot.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + amount


RECORDER = Recorder()


def _open_span(name: str, fingerprint: Optional[str]) -> Dict[str, Any]:
    stack = RECORDER.stack()
    span = {
        "name": name,
        "start": _now(),
        "end": None,
        "parent": stack[-1] if stack else None,
        "fp": fingerprint,
        "tid": threading.get_ident(),
        "id": id(object()),
    }
    stack.append(span["id"])
    return span


def _close_span(span: Dict[str, Any], extra: Optional[Dict[str, Any]]) -> None:
    span["end"] = _now()
    RECORDER.stack().pop()
    if extra:
        span.update(extra)
    with RECORDER.lock:
        RECORDER.spans.append(span)


def spanned(
    name: str,
    fingerprint: Optional[Callable[..., Optional[str]]] = None,
    annotate: Optional[Callable[[Any, tuple, dict], Optional[Dict[str, Any]]]] = None,
) -> Callable[[Callable], Callable]:
    """Wrap a function so every call records one span named ``name``."""

    def decorate(function: Callable) -> Callable:
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                span = _open_span(name, _safe(fingerprint, args, kwargs))
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    _close_span(span, _safe_annotate(annotate, result, args, kwargs))

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = _open_span(name, _safe(fingerprint, args, kwargs))
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                _close_span(span, _safe_annotate(annotate, result, args, kwargs))

        return wrapper

    return decorate


def _safe(extract, args, kwargs):
    if extract is None:
        return None
    try:
        return extract(*args, **kwargs)
    except Exception:  # noqa: BLE001 - attribution is best-effort
        return None


def _safe_annotate(annotate, result, args, kwargs):
    if annotate is None:
        return None
    try:
        return annotate(result, args, kwargs)
    except Exception:  # noqa: BLE001
        return None


# -- hot theory methods -----------------------------------------------------------

#: Theory class name -> metric prefix.  Looked up on ``type(self)`` so an
#: inherited method is charged to the theory that ran it.
THEORY_PREFIX = {
    "TreeRunTheory": "trees",
    "RelationalTheory": "relational",
    "AllDatabasesTheory": "relational",
    "HomTheory": "hom",
    "WordRunTheory": "words",
    "DataValuedTheory": "datavalues",
}
THEORY_METHODS = ("abstraction_key", "enumerate_deltas", "apply_delta")


def _active() -> set:
    active = getattr(RECORDER.local, "active", None)
    if active is None:
        active = RECORDER.local.active = set()
    return active


def _charge(key: str, seconds: float, top_level: bool) -> None:
    RECORDER.add_hot(key, seconds)
    if top_level:
        RECORDER.count("theory_top_s", seconds)


def _theory_wrapper(method_name: str, function: Callable) -> Callable:
    """Aggregate a theory method per concrete theory; generators timed per step."""
    is_generator = inspect.isgeneratorfunction(function)

    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        prefix = THEORY_PREFIX.get(type(self).__name__, type(self).__name__)
        key = f"{prefix}.{method_name}"
        active = _active()
        if key in active:  # a subclass calling up into its base: charged once
            return function(self, *args, **kwargs)
        if not is_generator:
            top_level = not active
            active.add(key)
            start = _now()
            try:
                return function(self, *args, **kwargs)
            finally:
                active.discard(key)
                _charge(key, _now() - start, top_level)
        return _timed_steps(key, function(self, *args, **kwargs))

    return wrapper


def _timed_steps(key: str, generator):
    """Re-yield ``generator``, charging only the time spent inside it."""
    spent = 0.0
    top_level = False
    active = _active()
    try:
        while True:
            top_level = top_level or not active
            active.add(key)
            start = _now()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                spent += _now() - start
                active.discard(key)
            yield item
    finally:
        generator.close()
        _charge(key, spent, top_level)


# -- installation -----------------------------------------------------------------


def _job_fp(job, *args, **kwargs):
    return job.fingerprint


def _self_job_fp(self, job, *args, **kwargs):
    return job.fingerprint


def _self_key(self, key, *args, **kwargs):
    return key


def _keyspace_fp(self, method, path, *args, **kwargs):
    tail = path.split("?")[0].rstrip("/").rsplit("/", 1)[-1]
    return tail if len(tail) == 64 else None


def _store_get_outcome(result, args, kwargs):
    return {"hit": result is not None}


def _engine_outcome(result, args, kwargs):
    s = result.statistics
    return {
        "configs": s.configurations_explored,
        "candidates": s.candidates_generated,
        "guard_evaluations": s.guard_evaluations,
        "guard_rejections": s.guard_rejections,
        "duplicates": s.duplicate_keys_pruned,
        "pre_materialization": s.plan_rejected_pre_materialization,
    }


def _job_outcome(result, args, kwargs):
    engine = float(result.statistics.get("elapsed_seconds", 0.0)) if result.statistics else 0.0
    return {"engine_s": engine}


def _wrap_attr(owner, attribute: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if getattr(original, "__perfbench__", False):
        return
    wrapped = wrapper_factory(original)
    wrapped.__perfbench__ = True
    setattr(owner, attribute, wrapped)


def install() -> None:
    """Wrap every timed entry point (idempotent)."""
    from repro import certify
    from repro.baselines import brute_force
    from repro.datavalues.theory import DataValuedTheory
    from repro.fraisse import base, engine, plans
    from repro.relational.theory import RelationalTheory
    from repro.service import backends, client, coordinator, jobs, keyspace, runner, server, store
    from repro.systems import simulate
    from repro.trees.theory import TreeRunTheory
    from repro.undecidable import reductions
    from repro.words.theory import WordRunTheory

    store_cls = store.ResultStore
    _wrap_attr(store_cls, "get", spanned("store.get", _self_key, _store_get_outcome))
    _wrap_attr(store_cls, "put", spanned("store.put", _self_job_fp))
    _wrap_attr(store_cls, "try_claim", spanned("store.claim", _self_job_fp))
    _wrap_attr(runner.BatchRunner, "record", spanned("runner.record", _self_job_fp))
    for op in ("get", "put", "put_if_absent", "compare_and_put", "delete"):
        _wrap_attr(client.HTTPBackend, op, spanned("backend.http", _self_key))
        _wrap_attr(backends.SQLiteBackend, op, spanned("sqlite.op", _self_key))
    _wrap_attr(keyspace.KeyspaceService, "handle", spanned("keyspace.service", _keyspace_fp))
    _wrap_attr(server.VerificationService, "_handle_one", spanned("server.handle"))
    _wrap_attr(coordinator.CoordinatorService, "_forward", spanned("coordinator.forward"))
    job_span = spanned("job.execute", _job_fp, _job_outcome)
    _wrap_attr(runner, "execute_job", job_span)
    _wrap_attr(engine.EmptinessSolver, "check", spanned("engine.check", None, _engine_outcome))

    compile_span = spanned("plans.compile")
    _wrap_attr(plans, "compile_plans", compile_span)
    _wrap_attr(engine, "compile_plans", compile_span)

    build_span = spanned("certify.build")
    encode_span = spanned("certify.encode", None, lambda r, a, k: {"bytes": len(r)})
    _wrap_attr(jobs, "build_certificate", build_span)
    _wrap_attr(jobs, "encode_certificate", encode_span)
    _wrap_attr(certify, "validate_encoded", spanned("certify.validate"))

    for module in (simulate, brute_force, reductions):
        _wrap_attr(module, "find_accepting_run", _hot("simulate.find_run"))
    _wrap_attr(
        brute_force.BruteForceSolver,
        "check",
        spanned("brute.check", None, lambda r, a, k: {"databases": r.databases_checked}),
    )

    for cls in (base.DatabaseTheory, RelationalTheory, TreeRunTheory, WordRunTheory,
                DataValuedTheory):
        for method in THEORY_METHODS:
            if method in cls.__dict__:
                _wrap_attr(cls, method, functools.partial(_theory_wrapper, method))


def _hot(name: str) -> Callable[[Callable], Callable]:
    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return function(*args, **kwargs)
            finally:
                RECORDER.add_hot(name, _now() - start)

        return wrapper

    return decorate


def reset() -> None:
    """Forget everything recorded so far (start of the timed phase)."""
    from repro.perf import reset_cache_stats

    RECORDER.reset()
    reset_cache_stats()


def snapshot(pid: int, role: str) -> Dict[str, Any]:
    """Everything recorded in this process, plus its engine cache counters."""
    from repro.perf import cache_stats_snapshot

    with RECORDER.lock:
        return {
            "pid": pid,
            "role": role,
            "spans": [dict(span) for span in RECORDER.spans],
            "hot": {name: list(entry) for name, entry in RECORDER.hot.items()},
            "counts": dict(RECORDER.counts),
            "caches": cache_stats_snapshot(),
        }


# -- per-layer metrics ---------------------------------------------------------------


def _p50_ms(values: Iterable[float]) -> float:
    values = list(values)
    return 1000.0 * statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    snapshots: List[Dict[str, Any]], operations: int, cache_names: Iterable[str]
) -> Dict[str, float]:
    """The per-layer metric values from every process's snapshot.

    A layer the workload never reaches reads 0 (no calls, no time).
    """
    spans: Dict[str, List[Dict[str, Any]]] = {}
    hot: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    caches: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        for span in snap["spans"]:
            spans.setdefault(span["name"], []).append(span)
        for name, (calls, seconds) in snap["hot"].items():
            entry = hot.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, stats in snap["caches"].items():
            entry = caches.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += stats["hits"]
            entry["misses"] += stats["misses"]

    def durations(name: str) -> List[float]:
        return [span["end"] - span["start"] for span in spans.get(name, ())]

    def total(name: str) -> float:
        return sum(durations(name))

    def field(name: str, key: str) -> float:
        return sum(span.get(key, 0) for span in spans.get(name, ()))

    ops = max(operations, 1)
    metrics: Dict[str, float] = {}
    http_p50 = _p50_ms(durations("backend.http"))
    service_p50 = _p50_ms(durations("keyspace.service"))
    metrics["keyspace.transport_ms.p50"] = max(http_p50 - service_p50, 0.0) if http_p50 else 0.0
    metrics["backend.http_ms.p50"] = http_p50
    metrics["keyspace.service_ms.p50"] = service_p50
    metrics["backend.calls_per_op"] = len(spans.get("backend.http", ())) / ops
    metrics["store.claim_ms.p50"] = _p50_ms(durations("store.claim"))
    metrics["store.put_ms.p50"] = _p50_ms(durations("store.put"))
    metrics["sqlite.op_ms.p50"] = _p50_ms(durations("sqlite.op"))
    metrics["runner.record_ms.p50"] = _p50_ms(durations("runner.record"))
    metrics["store.get_ms.p50"] = _p50_ms(durations("store.get"))
    gets = spans.get("store.get", ())
    metrics["store.hit_ratio"] = _ratio(sum(1 for s in gets if s.get("hit")), len(gets))
    metrics["coordinator.forward_ms.p50"] = _p50_ms(durations("coordinator.forward"))
    metrics["coordinator.forwards_per_op"] = len(spans.get("coordinator.forward", ())) / ops
    metrics["server.handle_ms.p50"] = _p50_ms(durations("server.handle"))
    job_spans = spans.get("job.execute", ())
    metrics["job.wall_ms.p50"] = _p50_ms(durations("job.execute"))
    metrics["job.overhead_ms.p50"] = _p50_ms(
        max(s["end"] - s["start"] - s.get("engine_s", 0.0), 0.0) for s in job_spans
    )

    busy = total("engine.check")
    configs = field("engine.check", "configs")
    candidates = field("engine.check", "candidates")
    guard_evaluations = field("engine.check", "guard_evaluations")
    metrics["engine.busy_s"] = busy
    metrics["engine.self_s"] = max(busy - counts.get("theory_top_s", 0.0), 0.0)
    metrics["engine.configs_per_s"] = _ratio(configs, busy)
    metrics["engine.configs_explored"] = configs
    metrics["engine.candidates"] = candidates
    metrics["engine.guard_evaluations"] = guard_evaluations
    metrics["engine.guard_reject_ratio"] = _ratio(
        field("engine.check", "guard_rejections"), guard_evaluations
    )
    metrics["engine.duplicate_ratio"] = _ratio(field("engine.check", "duplicates"), candidates)
    metrics["plans.compile_s"] = total("plans.compile")
    metrics["plans.pre_materialization_ratio"] = _ratio(
        field("engine.check", "pre_materialization"), candidates
    )
    for prefix in sorted(set(THEORY_PREFIX.values())):
        for method in THEORY_METHODS:
            calls, seconds = hot.get(f"{prefix}.{method}", (0, 0.0))
            metrics[f"{prefix}.{method}_s"] = seconds
            metrics[f"{prefix}.{method}_calls"] = calls
    for name in cache_names:
        entry = caches.get(name, {"hits": 0, "misses": 0})
        lookups = entry["hits"] + entry["misses"]
        metrics[f"cache.{name}.hit_ratio"] = _ratio(entry["hits"], lookups)
        metrics[f"cache.{name}.lookups"] = lookups

    builds = durations("certify.build")
    encodes = spans.get("certify.encode", ())
    metrics["certify.build_ms.p50"] = _p50_ms(
        b + (e["end"] - e["start"]) for b, e in zip(builds, encodes)
    )
    metrics["certify.kb.p50"] = (
        statistics.median(e.get("bytes", 0) for e in encodes) / 1024.0 if encodes else 0.0
    )
    metrics["certify.validate_ms.p50"] = _p50_ms(durations("certify.validate"))
    calls, seconds = hot.get("simulate.find_run", (0, 0.0))
    metrics["simulate.find_run_s"] = seconds
    metrics["simulate.calls"] = calls
    metrics["brute.databases_checked"] = field("brute.check", "databases")
    metrics["brute.s"] = total("brute.check")
    return metrics


def perfetto(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One Chrome/Perfetto trace of every process's spans."""
    from repro.telemetry import chrome_trace

    events: List[Dict[str, Any]] = []
    origin = min(
        (span["start"] for snap in snapshots for span in snap["spans"]), default=0.0
    )
    for snap in snapshots:
        threads: Dict[int, List[Dict[str, Any]]] = {}
        for span in snap["spans"]:
            threads.setdefault(span["tid"], []).append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "start": span["start"] - origin,
                    "dur": span["end"] - span["start"],
                    "args": {"fingerprint": span["fp"]} if span.get("fp") else {},
                }
            )
        for tid, thread_spans in enumerate(threads.values(), start=1):
            converted = chrome_trace({"spans": thread_spans}, pid=snap["pid"], tid=tid)
            for event in converted["traceEvents"]:
                if event.get("ph") == "M":
                    event["args"] = {"name": snap["role"]}
            events.extend(converted["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
