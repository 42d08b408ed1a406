"""Structured run journal: one JSON object per line (JSONL).

The journal is the engine's observability backbone: every run start,
stage completion (with status, wall time, cache disposition and netlist
metrics) and run end is recorded as one line.  Events are kept in
memory as well, so in-process callers (tests, benchmarks, reports) can
inspect a run without re-reading the file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional


class RunJournal:
    """Append-only event log, optionally persisted to a JSONL file.

    ``trace_id`` stamps every recorded event with the identity of the
    work the journal belongs to (the service daemon passes the job's
    trace ID), so journal lines, exported trace events and HTTP
    tickets correlate on one key.  Records are serialised under the
    journal lock and written as one ``write`` call per line, so
    concurrent writers -- the daemon's journal records submissions
    from HTTP threads and settlements from worker threads -- can never
    interleave partial lines.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        append: bool = False,
        trace_id: Optional[str] = None,
    ):
        self.path = path
        self.trace_id = trace_id
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._handle = None
        if path:
            # per-job journals live under a run directory that may not
            # exist yet (daemon first record); create it rather than
            # erroring
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(path, "a" if append else "w")

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the stamped entry.

        Recording after :meth:`close` keeps accepting events in memory
        -- a late writer (an exporter flushing after the run) must not
        crash on the closed file handle.
        """
        entry: Dict[str, Any] = {"ts": round(time.time(), 6), "event": event}
        if self.trace_id is not None:
            entry["trace_id"] = self.trace_id
        entry.update(fields)
        with self._lock:
            self.events.append(entry)
            if self._handle is not None and not self._handle.closed:
                self._handle.write(json.dumps(entry, default=str) + "\n")
                self._handle.flush()
        return entry

    def select(self, event: Optional[str] = None, **filters: Any):
        """Events matching ``event`` name and every ``field=value`` filter."""
        out = []
        with self._lock:
            snapshot = list(self.events)
        for entry in snapshot:
            if event is not None and entry.get("event") != event:
                continue
            if all(entry.get(k) == v for k, v in filters.items()):
                out.append(entry)
        return out

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL journal file back into a list of event dicts.

    A crash-interrupted run leaves a truncated final line; the valid
    prefix is returned and the partial tail is skipped instead of
    raising ``json.JSONDecodeError``.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return events
