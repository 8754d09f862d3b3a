"""Parallel sweep execution with content-addressed result caching.

Every evaluation artifact in this repository is a grid sweep of
independent (instance, heuristic, seed) runs.  This module turns those
sweeps into data: a sweep is a list of :class:`PointSpec` values (one
per grid point) plus a registered *point function* — a pure, importable
function mapping a spec to a JSON-able result dict.  The
:class:`Executor` then owns everything operational about running the
grid:

* **fan-out** — grid points run on a ``concurrent.futures``
  ``ProcessPoolExecutor`` when ``workers > 1``, and in-process when
  ``workers == 1`` (the default, so plain driver calls stay serial);
  both feed the same futures loop, so retry and outcome handling are
  one code path;
* **caching** — results are stored content-addressed under
  ``results/cache/`` keyed by a stable hash of (point kind, params,
  seed, cache version), so re-running a figure only computes the
  missing points;
* **tracing** — with ``trace_dir`` set, every computed point activates
  a :class:`repro.obs.JsonlTracer` around its point function, writing a
  per-point run trace to ``trace_dir/<figure>-<kind>-<index>.jsonl``;
  traces are per-process and deterministic, so serial and parallel
  sweeps produce byte-identical trace files;
* **failure policy** — a failing point is retried :data:`RETRIES`
  times and then *reported* via :class:`SweepError` with the
  worker-side traceback attached; points are never silently dropped.
  A worker that dies breaks the pool: every unfinished point fails
  with the pool's error (no retry), and the sweep still ends with a
  ``sweep_end`` in the ledger;
* **the run ledger** — the executor's one per-point record.  With
  ``ledger_path`` set, the executor appends a run ledger
  (:mod:`repro.obs.live`): a worker writes ``point_start`` as it
  begins a point, and the parent writes everything else —
  ``sweep_start``, one ``point_end`` per attempt (built from the
  same outcome it keeps, whether the point was computed, served from
  the cache, failed, or was ended by a broken pool or an interrupt),
  and ``sweep_end``, even when the sweep is interrupted.  Every
  ``point_end`` carries the cache ``key`` and the point's reported
  ``stats``; a computed attempt's adds the worker's ``getrusage``
  peaks, and a failed attempt's carries ``error`` and ``traceback``.
  Wall-clock and resource fields live *only* in the ledger — trace
  files stay byte-identical with monitoring on or off — and a retried
  point's stale ledger events are superseded by ``attempt`` index;
* **profiling** — with ``profile`` set, each computed point activates
  an ambient :class:`repro.obs.MetricsRegistry` around its point
  function; workers ship their snapshots home, each sweep's snapshots
  merge into that sweep's profile (embedded in the ledger's
  ``sweep_end`` event), and every sweep's profile folds into
  ``Executor.profile``.

Parallel output is bit-identical to serial output by construction:
results are returned in grid order regardless of completion order, and
every per-point seed is derived from the spec, never from worker state.

Point functions must be module-level (picklable) and must derive all
randomness from ``spec.seed``/``spec.params``; they are registered with
the :func:`point_function` decorator and looked up by ``spec.kind``.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import hashlib
import json
import os
import sys
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.obs.events import make_event
from repro.obs.live.ledger import LedgerWriter
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, metrics_active
from repro.obs.tracer import JsonlTracer, activated

try:
    import resource as _resource
except ImportError:  # pragma: no cover — non-POSIX platform
    _resource = None  # type: ignore[assignment]

__all__ = [
    "CACHE_VERSION",
    "RETRIES",
    "PointSpec",
    "point_function",
    "resolve_point_function",
    "PointOutcome",
    "SweepError",
    "ExecutorConfig",
    "Executor",
]

#: Bump when a change to any point function alters what cached results
#: mean; every cache key embeds this, so old entries become unreachable
#: rather than silently wrong.
CACHE_VERSION = "1"

#: Extra attempts a failing point gets before the sweep reports it.
RETRIES = 1

_logger = get_logger(__name__)

JsonDict = Dict[str, Any]
PointFunction = Callable[["PointSpec"], JsonDict]

_MISSING = object()


class _FrozenMap(Tuple[Tuple[str, Any], ...]):
    """Sorted key/value item tuples standing in for a dict param value.

    A distinct type (not a bare tuple) so :func:`_jsonify` can turn the
    canonical form back into a dict instead of a list of pairs.
    """

    __slots__ = ()

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_FrozenMap, (tuple(self),))


def _canonical(value: Any) -> Any:
    """Normalize a params value into a hashable, JSON-stable form.

    Lists become tuples (so specs stay hashable/picklable); dicts become
    :class:`_FrozenMap` sorted-item tuples.  :func:`_jsonify` inverts
    both, so the canonical form round-trips through the cache.
    """
    if isinstance(value, Mapping):
        return _FrozenMap(
            sorted((str(k), _canonical(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise TypeError(
        f"sweep point params must be JSON-able scalars/lists/dicts, "
        f"got {type(value).__name__}: {value!r}"
    )


def _jsonify(value: Any) -> Any:
    """Recursively turn canonical param values back into JSON types."""
    if isinstance(value, _FrozenMap):
        return {k: _jsonify(v) for k, v in value}
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class PointSpec:
    """One grid point of a sweep.

    ``figure`` labels the sweep for the ledger/progress; ``kind`` selects
    the registered point function; ``index`` is the point's position in
    the grid (results are emitted in this order); ``params`` carries the
    point's JSON-able inputs in canonical sorted-key form; ``seed`` is
    the point's base seed.  ``kind``/``params``/``seed`` — and nothing
    else — determine the cache key.
    """

    figure: str
    kind: str
    index: int
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @classmethod
    def make(
        cls,
        figure: str,
        kind: str,
        index: int,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
    ) -> "PointSpec":
        items = tuple(
            sorted((str(k), _canonical(v)) for k, v in (params or {}).items())
        )
        return cls(figure=figure, kind=kind, index=index, params=items, seed=seed)

    def param(self, key: str, default: Any = _MISSING) -> Any:
        for k, v in self.params:
            if k == key:
                return _jsonify(v)
        if default is _MISSING:
            raise KeyError(f"point {self.kind}[{self.index}] has no param {key!r}")
        return default

    def params_dict(self) -> Dict[str, Any]:
        return {k: _jsonify(v) for k, v in self.params}

    def cache_key(self) -> str:
        """Stable content hash of everything that determines the result."""
        payload = {
            "version": CACHE_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Point-function registry
# ----------------------------------------------------------------------

_POINT_FUNCTIONS: Dict[str, PointFunction] = {}


def point_function(kind: str) -> Callable[[PointFunction], PointFunction]:
    """Register a pure point function under ``kind``.

    The function must be defined at module top level (worker processes
    re-import it) and must be a deterministic function of its spec.
    """

    def decorator(fn: PointFunction) -> PointFunction:
        existing = _POINT_FUNCTIONS.get(kind)
        if existing is not None and existing is not fn:
            raise ValueError(f"point kind {kind!r} is already registered")
        _POINT_FUNCTIONS[kind] = fn
        return fn

    return decorator


def resolve_point_function(kind: str) -> PointFunction:
    """Look up a point function, importing the driver package if needed.

    Worker processes started with the ``spawn`` method begin with an
    empty registry; importing :mod:`repro.experiments` pulls in every
    driver module, which registers its point functions as a side effect.
    """
    if kind not in _POINT_FUNCTIONS:
        import repro.experiments  # noqa: F401  (registers driver point functions)
    try:
        return _POINT_FUNCTIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown point kind {kind!r}; registered: "
            f"{', '.join(sorted(_POINT_FUNCTIONS)) or '(none)'}"
        ) from None


def _point_trace_path(trace_dir: str, spec: PointSpec) -> str:
    """The deterministic per-point trace file for a spec."""
    return os.path.join(
        trace_dir, f"{spec.figure}-{spec.kind}-{spec.index:04d}.jsonl"
    )


def _rusage() -> Tuple[Optional[int], Optional[float]]:
    """Current process peak RSS (kB) and CPU seconds, when available."""
    if _resource is None:
        return None, None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return int(usage.ru_maxrss), float(usage.ru_utime + usage.ru_stime)


@dataclass(frozen=True)
class _PointRecord:
    """What one computed attempt sends home, success and failure alike.

    ``result`` is set on success; ``error`` and ``traceback`` (formatted
    where the point ran) on failure.  ``profile`` is the attempt's
    metrics snapshot when profiling.
    """

    wall_s: float
    worker: int
    result: Optional[JsonDict] = None
    error: str = ""
    traceback: str = ""
    maxrss_kb: Optional[int] = None
    cpu_s: Optional[float] = None
    profile: Optional[JsonDict] = None


def _compute_point(
    spec: PointSpec,
    trace_dir: Optional[str] = None,
    ledger_path: Optional[str] = None,
    attempt: int = 0,
    profile: bool = False,
) -> _PointRecord:
    """Worker entry: run one point, timing it.  Must stay module-level
    so it is picklable by ProcessPoolExecutor.

    With ``trace_dir`` set, a :class:`JsonlTracer` is ambient for the
    duration of the point function, so every engine it constructs
    records into the point's trace file.  A retry reopens the file
    fresh, so failed attempts never leave duplicate events behind.

    With ``ledger_path`` set, the worker appends the point's
    ``point_start``; the parent writes its ``point_end`` from the
    returned record.  With ``profile`` set, an ambient
    :class:`MetricsRegistry` wraps the point function.  An ``Exception``
    from the point becomes the record's ``error``; a ``BaseException``
    (say, ``KeyboardInterrupt``) propagates.
    """
    started = time.perf_counter()
    if ledger_path is not None:
        with LedgerWriter(ledger_path) as ledger:
            ledger.write(
                make_event(
                    "point_start",
                    {
                        "figure": spec.figure,
                        "kind": spec.kind,
                        "index": spec.index,
                        "seed": spec.seed,
                        "attempt": attempt,
                        "worker": os.getpid(),
                        "started_unix": time.time(),
                    },
                )
            )
    registry = MetricsRegistry() if profile else None
    result: Optional[JsonDict] = None
    error = traceback = ""
    try:
        fn = resolve_point_function(spec.kind)
        with contextlib.ExitStack() as stack:
            if registry is not None:
                stack.enter_context(metrics_active(registry))
            if trace_dir is not None:
                os.makedirs(trace_dir, exist_ok=True)
                tracer = stack.enter_context(
                    JsonlTracer(path=_point_trace_path(trace_dir, spec))
                )
                tracer.emit(
                    "trace_header",
                    {
                        "figure": spec.figure,
                        "kind": spec.kind,
                        "index": spec.index,
                        "seed": spec.seed,
                        "params": spec.params_dict(),
                    },
                )
                stack.enter_context(activated(tracer))
            value = fn(spec)
        if not isinstance(value, dict):
            raise TypeError(
                f"point function {spec.kind!r} must return a dict, "
                f"got {type(value).__name__}"
            )
        try:
            json.dumps(value, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"point function {spec.kind!r} returned a result that is not JSON: {exc}"
            ) from None
        result = value
    except Exception as exc:  # noqa: BLE001 — the parent reports it
        error = f"{type(exc).__name__}: {exc}"
        traceback = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
    wall_s = time.perf_counter() - started
    rss, cpu = _rusage()
    return _PointRecord(
        wall_s=wall_s,
        worker=os.getpid(),
        result=result,
        error=error,
        traceback=traceback,
        maxrss_kb=rss,
        cpu_s=cpu,
        profile=registry.snapshot() if registry is not None else None,
    )


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointOutcome:
    """In-memory record of one executed (or cache-served) point."""

    spec: PointSpec
    cache_hit: bool
    wall_s: float
    worker: int
    retries: int
    ok: bool
    error: str = ""
    traceback: str = ""
    stats: Optional[JsonDict] = None


def _record_outcome(spec: PointSpec, attempt: int, record: _PointRecord) -> PointOutcome:
    """The outcome of an attempt that reported back, ok or not."""
    result = record.result
    return PointOutcome(
        spec=spec,
        cache_hit=False,
        wall_s=record.wall_s,
        worker=record.worker,
        retries=attempt,
        ok=result is not None,
        error=record.error,
        traceback=record.traceback,
        stats=result.get("stats") if result is not None else None,
    )


def _failed_outcome(spec: PointSpec, attempt: int, exc: BaseException) -> PointOutcome:
    """The outcome of an attempt that never reported: the pool failed,
    or the sweep was interrupted, first.  No worker is known (``0``)."""
    return PointOutcome(
        spec=spec,
        cache_hit=False,
        wall_s=0.0,
        worker=0,
        retries=attempt,
        ok=False,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


def _point_end(outcome: PointOutcome, record: Optional[_PointRecord] = None) -> JsonDict:
    """The ``point_end`` ledger row of one attempt's outcome.

    ``record`` is the attempt's own report, when it sent one: it adds
    the worker's resource peaks.
    """
    spec = outcome.spec
    fields: JsonDict = {
        "figure": spec.figure,
        "kind": spec.kind,
        "index": spec.index,
        "seed": spec.seed,
        "key": spec.cache_key(),
        "attempt": outcome.retries,
        "worker": outcome.worker,
        "ok": outcome.ok,
        "cache": "hit" if outcome.cache_hit else "miss",
        "wall_s": round(outcome.wall_s, 6),
    }
    if isinstance(outcome.stats, dict):
        fields["stats"] = outcome.stats
    if not outcome.ok:
        fields["error"] = outcome.error
        fields["traceback"] = outcome.traceback
    if record is not None:
        if record.maxrss_kb is not None:
            fields["maxrss_kb"] = record.maxrss_kb
        if record.cpu_s is not None:
            fields["cpu_s"] = round(record.cpu_s, 6)
    return make_event("point_end", fields)


class SweepError(RuntimeError):
    """One or more grid points failed: after their retry, or with the pool.

    Carries the failing outcomes so callers can report exactly which
    points died instead of losing them in a pool traceback.
    """

    def __init__(self, failures: Sequence[PointOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep point(s) failed:"]
        for outcome in self.failures:
            lines.append(
                f"  {outcome.spec.figure}/{outcome.spec.kind}"
                f"[{outcome.spec.index}] seed={outcome.spec.seed}: {outcome.error}"
            )
            if outcome.traceback:
                lines.extend(
                    "    | " + tb_line
                    for tb_line in outcome.traceback.rstrip("\n").split("\n")
                )
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class ExecutorConfig:
    """Operational knobs for one :class:`Executor`.

    ``workers == 1`` runs points serially in-process (the default, and
    what reproduces pre-executor invocations exactly); higher values fan
    out over a process pool.  Caching is opt-in so programmatic driver
    calls stay pure; the CLI turns it on.
    """

    workers: int = 1
    use_cache: bool = False
    force: bool = False
    cache_dir: str = os.path.join("results", "cache")
    progress: bool = False
    #: When set, every computed point writes a run trace to
    #: ``trace_dir/<figure>-<kind>-<index>.jsonl`` (cache hits compute
    #: nothing and therefore trace nothing).
    trace_dir: Optional[str] = None
    #: When set, the executor appends the run ledger
    #: (:mod:`repro.obs.live`) there: ``sweep_start``, per-point
    #: ``point_start``/``point_end``, ``sweep_end``.
    #: Off by default (the CLI puts it under ``cache_dir`` when caching)
    #: — disabled monitoring adds no work to any path.
    ledger_path: Optional[str] = None
    #: Activate an ambient :class:`repro.obs.MetricsRegistry` around
    #: every computed point and merge the per-worker snapshots into one
    #: profile per sweep (``sweep_end``) and one across sweeps
    #: (``Executor.profile``).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers (--workers) must be at least 1, got {self.workers!r}"
            )


class _InProcessExecutor(concurrent.futures.Executor):
    """The ``workers == 1`` pool: runs each call at once, in this process.

    ``submit`` returns an already-finished future holding the call's
    result or the ``Exception`` it raised, so serial sweeps go through
    the same futures loop as pool sweeps.  A ``BaseException`` (say,
    ``KeyboardInterrupt``) still propagates.
    """

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> concurrent.futures.Future[Any]:
        future: concurrent.futures.Future[Any] = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 — the loop reports it
            future.set_exception(exc)
        return future


class Executor:
    """Runs sweeps: fan-out, cache, ledger, retry, ordered results.

    One executor may run many sweeps; outcomes accumulate on
    ``self.outcomes`` (and stream to the run ledger when configured).
    ``run`` always returns results in grid order, so a parallel run is
    byte-identical to a serial one.
    """

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        *,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.outcomes: List[PointOutcome] = []
        #: Metrics of every sweep run so far, merged from per-worker
        #: snapshots when ``config.profile`` is set (empty otherwise).
        self.profile = MetricsRegistry()
        self._stream = stream if stream is not None else sys.stderr

    # -- cache ----------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        return os.path.join(self.config.cache_dir, key[:2], f"{key}.json")

    def _cache_load(self, spec: PointSpec) -> Optional[JsonDict]:
        if not self.config.use_cache or self.config.force:
            return None
        path = self._cache_path(spec.cache_key())
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CACHE_VERSION or payload.get("kind") != spec.kind:
            return None
        result = payload.get("result")
        return result if isinstance(result, dict) else None

    def _cache_store(self, spec: PointSpec, result: JsonDict) -> None:
        if not self.config.use_cache:
            return
        key = spec.cache_key()
        path = self._cache_path(key)
        payload = {
            "version": CACHE_VERSION,
            "kind": spec.kind,
            "figure": spec.figure,
            "seed": spec.seed,
            "params": spec.params_dict(),
            "result": result,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)

    # -- ledger ---------------------------------------------------------
    def _open_ledger(self, specs: Sequence[PointSpec]) -> Optional[LedgerWriter]:
        """Open the run ledger and announce the sweep, when configured."""
        path = self.config.ledger_path
        if not path or not specs:
            return None
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        ledger = LedgerWriter(path)
        fields: JsonDict = {
            "figure": specs[0].figure,
            "points": len(specs),
            "workers": self.config.workers,
            "started_unix": time.time(),
        }
        if self.config.trace_dir:
            fields["trace_dir"] = self.config.trace_dir
        ledger.write(make_event("sweep_start", fields))
        return ledger

    # -- execution ------------------------------------------------------
    def _compute(
        self,
        specs: Sequence[PointSpec],
        pending: Sequence[int],
        results: List[Optional[JsonDict]],
        outcomes: List[Optional[PointOutcome]],
        profile: MetricsRegistry,
        ledger: Optional[LedgerWriter],
    ) -> None:
        """Compute the pending points, retrying failures.

        Every attempt ends here, in one place: its record (or the pool's
        error) becomes a :class:`PointOutcome` and, with a ledger, its
        ``point_end`` row.  Results land in ``results`` by grid index,
        so completion order never affects output order; finished futures
        are handled in submission order, so a serial sweep merges its
        profile in grid order.  Once the pool breaks (a worker died),
        every unfinished future holds the pool's error: those points fail
        without a retry.  If anything escapes (say, ``KeyboardInterrupt``),
        every submitted point not yet closed fails with it first.
        """
        config = self.config
        pool: concurrent.futures.Executor = (
            concurrent.futures.ProcessPoolExecutor(max_workers=config.workers)
            if config.workers > 1
            else _InProcessExecutor()
        )
        # A pool takes every point at once; in-process, a point runs
        # inside submit(), so it is closed before the next one starts.
        limit = len(pending) if config.workers > 1 else 1
        queue = collections.deque(pending)
        futures: Dict[concurrent.futures.Future[Any], int] = {}
        # grid index -> attempt, for every submitted point not yet closed.
        open_attempts: Dict[int, int] = {}

        def submit(i: int, attempt: int) -> None:
            open_attempts[i] = attempt
            try:
                future = pool.submit(
                    _compute_point,
                    specs[i],
                    config.trace_dir,
                    config.ledger_path,
                    attempt,
                    config.profile,
                )
            except concurrent.futures.BrokenExecutor as exc:
                # The pool broke before this (re)submission: the point
                # fails with the pool's error like every other one.
                future = concurrent.futures.Future()
                future.set_exception(exc)
            futures[future] = i

        def close(i: int, outcome: PointOutcome, record: Optional[_PointRecord]) -> None:
            del open_attempts[i]
            if ledger is not None:
                ledger.write(_point_end(outcome, record))

        with pool:
            try:
                while queue or futures:
                    while queue and len(futures) < limit:
                        submit(queue.popleft(), 0)
                    done, _ = concurrent.futures.wait(
                        futures, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in [f for f in futures if f in done]:
                        i = futures.pop(future)
                        attempt = open_attempts[i]
                        record: Optional[_PointRecord] = None
                        try:
                            record = future.result()
                        except Exception as exc:  # noqa: BLE001 — the pool failed
                            outcome = _failed_outcome(specs[i], attempt, exc)
                        else:
                            outcome = _record_outcome(specs[i], attempt, record)
                        close(i, outcome, record)
                        if record is not None and not outcome.ok and attempt < RETRIES:
                            submit(i, attempt + 1)  # the point failed, not the pool
                            continue
                        outcomes[i] = outcome
                        if record is not None and record.result is not None:
                            results[i] = record.result
                            if record.profile is not None:
                                profile.merge(MetricsRegistry.from_snapshot(record.profile))
            except BaseException as exc:
                pool.shutdown(wait=False, cancel_futures=True)
                for i, attempt in sorted(open_attempts.items()):
                    outcome = _failed_outcome(specs[i], attempt, exc)
                    outcomes[i] = outcome
                    close(i, outcome, None)
                raise

    def run(self, points: Sequence[PointSpec]) -> List[JsonDict]:
        """Execute a grid; return one result dict per point, in order.

        Cache hits are served without computing; misses run serially or
        on the pool; results come back ordered by grid position either
        way.  Raises :class:`SweepError` if any point failed after its
        retry — partial results are never returned silently.  Anything
        else that escapes (say, ``KeyboardInterrupt``) still ends the
        sweep in the ledger, with ``ok: false``, before it propagates.
        """
        specs = list(points)
        started = time.perf_counter()
        results: List[Optional[JsonDict]] = [None] * len(specs)
        outcomes: List[Optional[PointOutcome]] = [None] * len(specs)
        # This sweep's merged worker snapshots; folded into
        # ``self.profile`` once the sweep ends.
        profile = MetricsRegistry()
        ledger = self._open_ledger(specs)
        completed = False
        try:
            pending: List[int] = []
            for i, spec in enumerate(specs):
                cached = self._cache_load(spec)
                if cached is None:
                    pending.append(i)
                    continue
                results[i] = cached
                # Cache hits never reach a worker: the parent closes
                # them in the ledger directly (cache="hit").
                outcome = PointOutcome(
                    spec=spec,
                    cache_hit=True,
                    wall_s=0.0,
                    worker=os.getpid(),
                    retries=0,
                    ok=True,
                    stats=cached.get("stats"),
                )
                outcomes[i] = outcome
                if ledger is not None:
                    ledger.write(_point_end(outcome))

            if pending:
                self._compute(specs, pending, results, outcomes, profile, ledger)

            for i in pending:
                result = results[i]
                if result is not None:
                    self._cache_store(specs[i], result)
            completed = True
        finally:
            final_outcomes = [o for o in outcomes if o is not None]
            failures = [o for o in final_outcomes if not o.ok]
            self.outcomes.extend(final_outcomes)
            self.profile.merge(profile)
            if specs:
                hits = sum(1 for o in final_outcomes if o.cache_hit)
                elapsed = time.perf_counter() - started
                message = (
                    f"[sweep] {specs[0].figure}: {len(specs)} points "
                    f"({hits} cached, {len(specs) - hits} computed, "
                    f"workers={self.config.workers}) in {elapsed:.1f}s"
                )
                _logger.debug("%s", message)
                if self.config.progress:
                    self._stream.write(message + "\n")
                if ledger is not None:
                    end_fields: JsonDict = {
                        "figure": specs[0].figure,
                        "points": len(specs),
                        "done": sum(1 for o in final_outcomes if o.ok),
                        "failed": len(failures),
                        "cached": hits,
                        "ok": completed and not failures,
                        "wall_s": round(elapsed, 6),
                    }
                    if self.config.profile:
                        end_fields["profile"] = profile.snapshot()
                    ledger.write(make_event("sweep_end", end_fields))
                    ledger.close()
                if self.config.profile and self.config.progress:
                    self._stream.write(
                        "[sweep profile]\n" + profile.render() + "\n"
                    )
        if failures:
            raise SweepError(failures)
        return [result for result in results if result is not None]
