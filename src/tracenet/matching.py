"""Device-side matching of the local contact log against a published list.

A hit requires the identifier AND the date to agree: identifiers rotate
daily, so a date mismatch means a different broadcast period entirely. Each
hit is the matched `ContactRecord`, `(rdi, date, record)`, holding the very
value the log stores; its counts and ticks are read through the record's
properties.

The index holds each listed date's identifiers as one frozenset, and the
log holds each date's records as one dict. So a check costs C-level work on
the records of the listed dates, and Python work only per hit.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .contact_log import ContactRecord, record_order

_DATE = itemgetter(0)
_RDI = itemgetter(1)


class UnverifiedList(ValueError):
    pass


def build_index(lst, verified: bool) -> dict:
    """Index a published list for matching: `{date: frozenset of that
    date's rdis}`. `verified` must be the outcome of authority.verify_list
    on this list.

    A published list is sorted, so each date is one run of its entries;
    a date in several runs of an unsorted list gets the union of its runs."""
    if not verified:
        raise UnverifiedList("refusing to index an unverified carrier list")
    index = {}
    for date, run in groupby(lst.entries, _DATE):
        rdis = frozenset(map(_RDI, run))
        held = index.get(date)
        index[date] = rdis if held is None else held | rdis
    return index


def match_contacts(log, index: dict):
    """All log records whose (date, rdi) is in the index, in (date,
    first_tick, rdi) order. Each listed date's identifiers are intersected
    in C with the log's records of that date, iterating the smaller side;
    each hit then costs one record and its share of one sort."""
    days = log.days
    hits = []
    for date, rdis in index.items():
        day = days.get(date)
        if day:
            common = rdis.intersection(day) if len(day) < len(rdis) else day.keys() & rdis
            if common:
                hits += [ContactRecord(rdi, date, day[rdi]) for rdi in common]
    hits.sort(key=record_order)
    return hits


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
    hits.sort(key=record_order)
    return hits
