"""Device-side matching of the local contact log against a published list.

A hit requires the identifier AND the date to agree: identifiers rotate
daily, so a date mismatch means a different broadcast period entirely.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnverifiedList(ValueError):
    pass


@dataclass(frozen=True)
class Hit:
    rdi: bytes
    date: int
    record: object  # the matching ContactRecord


def build_index(lst, verified: bool) -> frozenset:
    """Index a published list for matching: its (date, rdi) pairs as a
    frozenset. `verified` must be the outcome of authority.verify_list on
    this list."""
    if not verified:
        raise UnverifiedList("refusing to index an unverified carrier list")
    return frozenset(lst.entries)


def _sorted_hits(hits):
    hits.sort(key=lambda h: (h.date, h.record.first_tick, h.rdi))
    return hits


def match_contacts(log, index: frozenset):
    """All log records whose (date, rdi) is in the index, in (date,
    first_tick) order. The log is probed once per index entry, so a check
    costs O(list), not O(log)."""
    records = log.records
    hits = [
        Hit(rdi=rdi, date=date, record=records[date, rdi])
        for date, rdi in index
        if (date, rdi) in records
    ]
    return _sorted_hits(hits)


def brute_force_match(log, lst):
    """Reference oracle: nested-loop comparison of every record against
    every list entry. Semantics for match_contacts; kept deliberately dumb."""
    hits = []
    entries = list(lst.entries)
    for rec in log.records.values():
        for date, rdi in entries:
            if rec.date == date and rec.foreign_rdi == rdi:
                hits.append(Hit(rdi=rdi, date=date, record=rec))
                break  # duplicate entries still yield one hit per record
    return _sorted_hits(hits)
