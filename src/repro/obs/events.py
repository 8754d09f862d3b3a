"""The versioned observability event schema and its one canonical writer.

Every JSONL record the repository emits — per-timestep run traces from
the engines, the sweep executor's run ledger — is an *event*: a flat
JSON object carrying ``schema_version`` (the integer schema revision)
and ``event`` (the record kind), plus kind-specific fields.  One schema
means one toolchain: ``repro report`` renders traces, ``ocd-repro
watch`` folds ledgers, and both can live in the same file without
ambiguity.

Serialization is canonical — sorted keys, compact separators, ``\\n``
terminated — so an event stream is a deterministic function of its
payloads and byte-comparison of two traces is meaningful.  Nothing here
may reach for wall-clock time or process identity; events that need
those (the run ledger) receive them as explicit payload fields, and
run-trace events carry none so identical seeds yield identical bytes.

Event kinds
-----------
``trace_header``
    First line of a trace file: scenario identification (problem name,
    sizes, engine kind, seed or sweep-point coordinates).
``run_start`` / ``step`` / ``stall`` / ``run_end``
    One simulated run.  ``step`` carries the per-timestep dynamics the
    paper argues from: tokens moved and gained, the remaining per-vertex
    deficit, the holder-count histogram, and arc utilization.
``run_attribution``
    One run's *derived* makespan attribution — critical-path shape,
    blocking-cause totals, and the lower-bound gap decomposition — as
    produced by :mod:`repro.obs.analyze.attribution`.  Engines never
    emit it: it is computed post hoc from a trace's own events, and
    appears only in ``trace-attribute`` output streams.
``sweep_start`` / ``point_start`` / ``point_heartbeat`` / ``point_end``
    / ``sweep_end``
    The *run ledger* (:mod:`repro.obs.live`): the sweep executor's
    append-only status stream and its one per-point record.  Ledger events
    are the one place wall-clock and resource fields are allowed —
    they never appear in trace files, which stay byte-identical with
    monitoring on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, TextIO, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "EVENT_SCHEMAS",
    "EventSchema",
    "EventWriter",
    "dump_event",
    "is_event",
    "iter_events",
    "make_event",
    "read_events",
    "read_events_tail",
    "validate_event",
]

#: Bump when a field changes meaning or is removed; readers dispatch on it.
SCHEMA_VERSION = 1

#: The known event kinds, for validation and docs.
EVENT_KINDS = (
    "trace_header",
    "run_start",
    "step",
    "stall",
    "run_end",
    "sweep_start",
    "point_start",
    "point_heartbeat",
    "point_end",
    "sweep_end",
    "run_attribution",
)

JsonDict = Dict[str, Any]


@dataclass(frozen=True)
class EventSchema:
    """The field contract of one event kind.

    ``required`` fields appear in every event of the kind; ``optional``
    fields may appear (sink-stamped ``run`` indices, engine-specific
    extras like ``facts_learned``).  Types name the JSON shape each
    field serializes as — ``"str"``, ``"int"``, ``"float"``, ``"bool"``,
    ``"list"``, ``"dict"`` — with ``"float"`` accepting ints (an
    ``arc_util`` of exactly 0 serializes as ``0``).

    The registry below is the single source of truth for three
    consumers: :func:`make_event`, which refuses to build an event that
    breaks it; :func:`validate_event`, which the trace replay
    (``trace-verify``) applies to every record it reads; and the schema
    table in ``docs/OBSERVABILITY.md``.
    """

    kind: str
    required: Mapping[str, str] = field(default_factory=dict)
    optional: Mapping[str, str] = field(default_factory=dict)

    def field_type(self, name: str) -> Optional[str]:
        """The declared type of a field, or None when unknown."""
        return self.required.get(name) or self.optional.get(name)


#: Fields every event may carry: the envelope plus the per-run index
#: sinks stamp on run-scoped events (see ``_RunCountingTracer``).
ENVELOPE_FIELDS: Dict[str, str] = {
    "schema_version": "int",
    "event": "str",
    "run": "int",
}

#: kind -> field contract.  Extend here *first* when an engine grows a
#: new field; make_event refuses any emission that drifts from this.
EVENT_SCHEMAS: Dict[str, EventSchema] = {
    schema.kind: schema
    for schema in (
        EventSchema(
            kind="trace_header",
            required={"seed": "int"},
            optional={
                "figure": "str",
                "kind": "str",
                "index": "int",
                "params": "dict",
                "family": "str",
                "size": "int",
                "tokens": "int",
                "scenario": "str",
                "heuristic": "str",
            },
        ),
        EventSchema(
            kind="run_start",
            required={
                "engine": "str",
                "heuristic": "str",
                "problem": "str",
                "n": "int",
                "tokens": "int",
                "arcs": "int",
                "max_steps": "int",
                "total_deficit": "int",
                "instance": "dict",
            },
            optional={
                # Bitplane count of the token universe (ceil(tokens/64));
                # lets trace analytics spot multi-plane runs without
                # re-deriving it from ``tokens``.
                "planes": "int",
            },
        ),
        EventSchema(
            kind="step",
            required={
                "step": "int",
                "sends": "int",
                "moves": "int",
                "gained": "int",
                "deficit": "int",
                "deficit_by_vertex": "list",
                "holder_hist": "list",
                "arc_util": "float",
                "transfers": "list",
            },
            optional={
                "facts_learned": "int",
                "arcs_up": "int",
            },
        ),
        EventSchema(
            kind="stall",
            required={"step": "int", "consecutive": "int"},
            optional={"terminal": "bool"},
        ),
        EventSchema(
            kind="run_end",
            required={"success": "bool", "makespan": "int", "bandwidth": "int"},
            optional={"knowledge_cost": "int"},
        ),
        # -- run-ledger kinds (repro.obs.live) -------------------------
        # The only events allowed to carry wall-clock (`*_unix`, `*_s`)
        # and resource (`maxrss_kb`, `cpu_s`) fields: the ledger is a
        # separate operational stream, never part of a trace file.
        EventSchema(
            kind="sweep_start",
            required={
                "figure": "str",
                "points": "int",
                "workers": "int",
                "started_unix": "float",
            },
            optional={"trace_dir": "str", "heartbeat_s": "float"},
        ),
        EventSchema(
            kind="point_start",
            required={
                "figure": "str",
                "kind": "str",
                "index": "int",
                "seed": "int",
                "attempt": "int",
                "worker": "int",
                "started_unix": "float",
            },
        ),
        EventSchema(
            kind="point_heartbeat",
            required={
                "figure": "str",
                "kind": "str",
                "index": "int",
                "attempt": "int",
                "worker": "int",
                "elapsed_s": "float",
            },
            optional={"maxrss_kb": "int", "cpu_s": "float"},
        ),
        EventSchema(
            kind="point_end",
            required={
                "figure": "str",
                "kind": "str",
                "index": "int",
                "seed": "int",
                "attempt": "int",
                "worker": "int",
                "ok": "bool",
                "cache": "str",
                "wall_s": "float",
            },
            optional={
                "key": "str",
                "stats": "dict",
                "error": "str",
                "traceback": "str",
                "maxrss_kb": "int",
                "cpu_s": "float",
            },
        ),
        EventSchema(
            kind="sweep_end",
            required={
                "figure": "str",
                "points": "int",
                "done": "int",
                "failed": "int",
                "cached": "int",
                "ok": "bool",
                "wall_s": "float",
            },
            optional={"profile": "dict"},
        ),
        # -- derived analytics kinds (repro.obs.analyze) ---------------
        # Never emitted by an engine: computed post hoc from a trace's
        # own run events, so attribution output is itself a valid event
        # stream any schema-aware consumer can read.
        EventSchema(
            kind="run_attribution",
            required={
                "engine": "str",
                "heuristic": "str",
                "problem": "str",
                "makespan": "int",
                "success": "bool",
                "bound_lookahead": "int",
                "bound_diameter": "int",
                "gap": "int",
                "gap_terms": "dict",
                "blocking": "dict",
                "path_length": "int",
                "path_hops": "int",
                "path_wait_steps": "int",
                "dominant_cause": "str",
                "arrivals": "int",
                "zero_slack": "int",
                "max_slack": "int",
            },
        ),
    )
}

_TYPE_CHECKS: Dict[str, Tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "list": (list, tuple),
    "dict": (dict,),
}


def _type_ok(declared: str, value: Any) -> bool:
    if declared in ("int", "float") and isinstance(value, bool):
        return False
    return isinstance(value, _TYPE_CHECKS[declared])


def validate_event(event: Mapping[str, Any]) -> List[str]:
    """Check one event against :data:`EVENT_SCHEMAS`; return problems.

    An empty list means the event conforms: known kind, all required
    fields present, no undeclared fields, every declared field of the
    declared type.  :func:`make_event` raises on any problem listed
    here, and the trace replay reports them for records read back.
    """
    if not is_event(event):
        return ["record lacks the schema envelope (schema_version/event)"]
    kind = event["event"]
    schema = EVENT_SCHEMAS.get(kind)
    if schema is None:
        return [f"unknown event kind {kind!r}"]
    problems: List[str] = []
    for name, declared in sorted(schema.required.items()):
        if name not in event:
            problems.append(f"{kind}: missing required field {name!r}")
    for name in sorted(event):
        if name in ENVELOPE_FIELDS:
            if not _type_ok(ENVELOPE_FIELDS[name], event[name]):
                problems.append(
                    f"{kind}: envelope field {name!r} is not "
                    f"{ENVELOPE_FIELDS[name]}: {event[name]!r}"
                )
            continue
        declared = schema.field_type(name)
        if declared is None:
            problems.append(f"{kind}: undeclared field {name!r}")
        elif not _type_ok(declared, event[name]):
            problems.append(
                f"{kind}: field {name!r} is not {declared}: {event[name]!r}"
            )
    return problems


def make_event(kind: str, fields: Mapping[str, Any]) -> JsonDict:
    """Build one schema-stamped event dict, holding it to the contract.

    This is the one enforcement point of :data:`EVENT_SCHEMAS`: every
    emission in the tree (tracers, the ledger, attribution) builds its
    event here.  ``fields`` must not shadow the envelope keys, and the
    result must pass :func:`validate_event` — an unknown kind, a missing
    required field, an undeclared field or a wrong type raises
    ``ValueError`` naming the kind and field, at emission time rather
    than at read time.
    """
    if "event" in fields or "schema_version" in fields:
        raise ValueError("event fields must not shadow the schema envelope")
    event: JsonDict = {"schema_version": SCHEMA_VERSION, "event": kind}
    event.update(fields)
    problems = validate_event(event)
    if problems:
        raise ValueError("; ".join(problems))
    return event


def is_event(obj: Any) -> bool:
    """Whether ``obj`` is a schema-versioned event record."""
    return (
        isinstance(obj, dict)
        and isinstance(obj.get("schema_version"), int)
        and isinstance(obj.get("event"), str)
    )


def dump_event(event: Mapping[str, Any]) -> str:
    """Canonical single-line serialization (sorted keys, compact, no NaN).

    Every writer in the repository goes through this function, which is
    what makes byte-comparison of traces meaningful.
    """
    return json.dumps(
        event, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class EventWriter:
    """Append-only JSONL writer over an open text handle.

    The writer owns serialization, never the handle's lifetime — callers
    (tracers, the sweep executor) decide when to open, flush, and close.
    """

    def __init__(self, handle: TextIO) -> None:
        self._handle = handle

    def write(self, event: Mapping[str, Any]) -> None:
        if not is_event(event):
            raise ValueError(
                "refusing to write a record without the schema envelope; "
                "build it with repro.obs.make_event"
            )
        self._handle.write(dump_event(event) + "\n")

    def flush(self) -> None:
        self._handle.flush()


def read_events(path: str, kind: Optional[str] = None) -> List[JsonDict]:
    """Load every event from a JSONL file (optionally one kind).

    Raises ``ValueError`` naming the file and line on a line that is not
    a schema-versioned event.  A torn final line is no exception: every
    trace analytic reads a finished file.
    """
    return list(iter_events(path, kind=kind))


def iter_events(path: str, kind: Optional[str] = None) -> Iterator[JsonDict]:
    """Stream events from a JSONL file without loading it whole."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            if not is_event(obj):
                raise ValueError(
                    f"{path}:{lineno}: record lacks the schema envelope "
                    f"(schema_version/event)"
                )
            if kind is None or obj["event"] == kind:
                yield obj


def read_events_tail(path: str, start: int = 0) -> Tuple[List[JsonDict], int]:
    """Read the complete events appended after byte offset ``start``.

    The ledger reader behind :mod:`repro.obs.live`: returns the events
    of every newline-terminated line from ``start`` onward plus the
    *clean* byte offset — the position just past the last complete line,
    which the caller passes back as the next ``start``.  A trailing
    partial line is left for the next poll, so reads over a growing
    ledger never see a torn record.  A complete line that is not an
    event raises ``ValueError`` naming the byte offset where it starts.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        blob = handle.read()
    end = blob.rfind(b"\n")
    if end < 0:
        return [], start
    events: List[JsonDict] = []
    offset = start
    for raw in blob[: end + 1].split(b"\n")[:-1]:
        at, offset = offset, offset + len(raw) + 1
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(
                f"{path}@{at}: complete line is not JSON: {exc}"
            ) from None
        if not is_event(obj):
            raise ValueError(
                f"{path}@{at}: record lacks the schema envelope "
                f"(schema_version/event)"
            )
        events.append(obj)
    return events, offset
