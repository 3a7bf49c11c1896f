"""Device-side matching of the local contact log against a published list.

A hit requires the identifier AND the date to agree: identifiers rotate
daily, so a date mismatch means a different broadcast period entirely. Each
hit is the matched `ContactRecord`, `(rdi, date, record)`, holding the very
value the log stores; its counts and ticks are read through the record's
properties.
"""

from __future__ import annotations

from types import MappingProxyType

from .contact_log import ContactRecord


# The day dict of a date the log holds no record of.
_NO_DAY = MappingProxyType({})


class UnverifiedList(ValueError):
    pass


def build_index(lst, verified: bool) -> frozenset:
    """Index a published list for matching: its (date, rdi) pairs as a
    frozenset. `verified` must be the outcome of authority.verify_list on
    this list."""
    if not verified:
        raise UnverifiedList("refusing to index an unverified carrier list")
    return frozenset(lst.entries)


def _sorted_hits(hits):
    hits.sort(key=lambda h: (h.date, h.first_tick, h.rdi))
    return hits


def match_contacts(log, index: frozenset):
    """All log records whose (date, rdi) is in the index, in (date,
    first_tick) order. The log's day dicts are probed once per index entry,
    so a check costs O(list), not O(log)."""
    days = log.days
    hits = [
        ContactRecord(rdi, date, value)
        for date, rdi in index
        if (value := days.get(date, _NO_DAY).get(rdi)) is not None
    ]
    return _sorted_hits(hits)


def brute_force_match(log, lst):
    """Reference oracle: nested-loop comparison of every record against
    every list entry. Semantics for match_contacts; kept deliberately dumb."""
    hits = []
    entries = list(lst.entries)
    for (rec_date, rec_rdi), value in log.records.items():
        for date, rdi in entries:
            if rec_date == date and rec_rdi == rdi:
                hits.append(ContactRecord(rdi, date, value))
                break  # duplicate entries still yield one hit per record
    return _sorted_hits(hits)
