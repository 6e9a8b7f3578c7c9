"""The append-only admit/release journal backing switch crash recovery.

Each :class:`~repro.core.switch_cac.SwitchCAC` writes one
:class:`JournalEntry` per state transition -- ``reserve``, ``commit``,
``abort``, one-shot ``admit``, ``release`` -- to an
:class:`AdmissionJournal`.  The journal models the switch's stable
storage: a crash wipes the incremental aggregate caches but never the
journal, and ``SwitchCAC.recover()`` replays its entries op-for-op
through the same method that applied them live, rebuilding a state
bit-identical to the pre-crash committed state (reservations that
never committed are discarded after the replay, exactly as a real
transaction log discards in-flight transactions).

The journal stores the opaque ``leg`` payload the switch gives it
(``reserve``/``admit`` entries carry the full leg, the others only the
connection id) and enforces append-only discipline: entries can be
added and read, never removed or reordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from ..obs import events as _oevents
from ..obs import metrics as _om

__all__ = ["JournalEntry", "AdmissionJournal", "JOURNAL_OPS"]

#: The legal journal operations, in the order a connection moves through
#: them (``admit`` is the one-shot reserve+commit the legacy API uses).
JOURNAL_OPS = ("reserve", "commit", "abort", "admit", "release")


@dataclass(frozen=True)
class JournalEntry:
    """One durable record: what happened to which connection.

    ``leg`` carries the admitted leg for ``reserve``/``admit`` entries
    (everything replay needs to redo the aggregate delta) and is
    ``None`` for the id-only operations.
    """

    sequence: int
    op: str
    connection_id: str
    leg: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.op not in JOURNAL_OPS:
            raise ValueError(
                f"unknown journal op {self.op!r}; expected one of "
                f"{JOURNAL_OPS}"
            )
        if self.op in ("reserve", "admit") and self.leg is None:
            raise ValueError(f"a {self.op!r} entry must carry its leg")


class AdmissionJournal:
    """Append-only sequence of :class:`JournalEntry` records."""

    def __init__(self) -> None:
        self._entries: list = []

    def append(self, op: str, connection_id: str,
               leg: Optional[Any] = None) -> JournalEntry:
        """Write one entry; returns it with its sequence number."""
        entry = JournalEntry(len(self._entries), op, connection_id, leg)
        self._entries.append(entry)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("journal_ops_total", op=op).inc()
        bus = _oevents.get_bus()
        if bus.has_subscribers:
            bus.emit("journal", op, connection_id=connection_id,
                     sequence=entry.sequence)
        return entry

    @property
    def entries(self) -> Tuple[JournalEntry, ...]:
        """Immutable snapshot of the whole log."""
        return tuple(self._entries)

    def replay(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Fold the log into ``(committed, pending)`` leg maps.

        Pure bookkeeping (no aggregate math): useful for audits and for
        asserting what :meth:`SwitchCAC.recover` should reconstruct.
        """
        committed: Dict[str, Any] = {}
        pending: Dict[str, Any] = {}
        for entry in self._entries:
            if entry.op == "reserve":
                pending[entry.connection_id] = entry.leg
            elif entry.op == "commit":
                committed[entry.connection_id] = pending.pop(
                    entry.connection_id)
            elif entry.op == "abort":
                pending.pop(entry.connection_id, None)
            elif entry.op == "admit":
                committed[entry.connection_id] = entry.leg
            elif entry.op == "release":
                committed.pop(entry.connection_id, None)
        return committed, pending

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(tuple(self._entries))

    def __repr__(self) -> str:
        return f"AdmissionJournal(entries={len(self._entries)})"
