"""``repro.obs.live`` — the run ledger and the sweep dashboard.

Everything else in :mod:`repro.obs` reads a finished trace.  This
package is the operational layer for sweeps still in flight:

* :class:`LedgerWriter` — the executor's append-only JSONL status
  stream (``sweep_start`` / ``point_start`` / ``point_heartbeat`` /
  ``point_end`` / ``sweep_end``).  One ``write()`` call per event and
  POSIX ``O_APPEND`` semantics keep concurrent worker appends intact
  without locks.
* :class:`LedgerState` — a pure reducer from ledger events to the
  current sweep picture: points done/failed/in-flight, throughput,
  ETA, slowest points, stale workers.  Retried points supersede their
  stale events by ``attempt`` index.
* :func:`render_dashboard` / :func:`watch` — the ``ocd-repro watch``
  terminal dashboard (injected stream; ``once=True`` for CI snapshots).
  Only the ledger is followed while the sweep runs; the trace anomaly
  verdict is one post-hoc :func:`repro.obs.analyze.scan_paths` call once
  the ledger shows ``sweep_end``.

The determinism contract is unchanged: wall-clock and resource fields
live only in the ledger, never in trace files, which stay byte-identical
with monitoring on or off.
"""

from repro.obs.live.ledger import LedgerState, LedgerWriter, PointState
from repro.obs.live.watch import WatchResult, render_dashboard, watch

__all__ = [
    "LedgerState",
    "LedgerWriter",
    "PointState",
    "WatchResult",
    "render_dashboard",
    "watch",
]
