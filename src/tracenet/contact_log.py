"""Device-local contact accounting.

Observations arrive on a 30-second tick grid: 2880 ticks per day, grouped
into 720 two-minute buckets. A record accumulates per-class tick counts for
one foreign identifier on one date; face-to-face time is the near+mid tick
count at half a minute per tick.

A log stores each record as a plain tuple of ints, `(near, mid, far,
first_tick, mask)`, where bit i of `mask` is set once tick `first_tick + i`
has been counted, so bit 0 is always set. That is the record's only tick
state, and two logs that counted the same ticks hold equal tuples. Tuples of
ints drop out of the garbage collector's tracking, so a large log adds
nothing to each collection pass. Only this module knows the layout: other
code reads a stored value through `as_record` and `first_tick_of`, which
give the `ContactRecord` boundary form with its absolute mask (bit t for
tick t). The history CSV carries no mask, so an upload does not disclose
30-second ticks; a parsed row gets the lowest mask a device could have
counted for it.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field
from enum import Enum

from .ident import DistanceClass, rdi_from_hex

TICKS_PER_DAY = 2880
TICKS_PER_BUCKET = 4
BUCKETS_PER_DAY = 720
MINUTES_PER_TICK = 0.5

DEFAULT_RETENTION_DAYS = 21
CATEGORY1_THRESHOLD_MINUTES = 15.0

HISTORY_CSV_HEADER = (
    "date,rdi_hex,near_ticks,mid_ticks,far_ticks,first_tick,last_tick,bucket_count"
)


class EmptyRange(ValueError):
    pass


class MalformedHistory(ValueError):
    """History CSV text that does not parse; the message names the line."""


class Category(Enum):
    CATEGORY1 = "category1"
    CATEGORY2 = "category2"
    UNCRITICAL = "uncritical"


@dataclass(slots=True)
class ContactRecord:
    """Accumulated observations of one foreign identifier on one date: the
    boundary form of a stored log value, for export, the history CSV and
    hit reactions."""

    foreign_rdi: bytes
    date: int
    near_ticks: int = 0
    mid_ticks: int = 0
    far_ticks: int = 0
    # Bit t is set once tick t has been counted: the stored value's mask
    # shifted up by its first tick. Not exported.
    ticks: int = field(default=0, repr=False)

    @property
    def first_tick(self) -> int:
        """Lowest counted tick; -1 when none is counted."""
        t = self.ticks
        return (t & -t).bit_length() - 1

    @property
    def last_tick(self) -> int:
        """Highest counted tick; -1 when none is counted."""
        return self.ticks.bit_length() - 1

    @property
    def buckets(self) -> frozenset:
        """Indices of the two-minute buckets holding a counted tick."""
        bucket_bits = (1 << TICKS_PER_BUCKET) - 1
        return frozenset(b for b in range(BUCKETS_PER_DAY)
                         if self.ticks >> (b * TICKS_PER_BUCKET) & bucket_bits)

    @property
    def total_ticks(self) -> int:
        return self.near_ticks + self.mid_ticks + self.far_ticks

    @property
    def face_to_face_minutes(self) -> float:
        return (self.near_ticks + self.mid_ticks) * MINUTES_PER_TICK


def classify(record: ContactRecord) -> Category:
    """Categorize a contact by accumulated face-to-face minutes.

    Exactly at the threshold is Category 2: Category 1 requires strictly
    more than `CATEGORY1_THRESHOLD_MINUTES`. Far-only contacts are
    uncritical.
    """
    face_ticks = record.near_ticks + record.mid_ticks
    if face_ticks == 0:
        return Category.UNCRITICAL
    if face_ticks * MINUTES_PER_TICK > CATEGORY1_THRESHOLD_MINUTES:
        return Category.CATEGORY1
    return Category.CATEGORY2


class ContactLog:
    """A device's contact records, keyed by (date, foreign rdi)."""

    def __init__(self, retention_days: int = DEFAULT_RETENTION_DAYS):
        # (date, rdi) -> (near, mid, far, first_tick, mask); see the module
        # docstring.
        self.records: dict = {}
        self.retention_days = retention_days

    def record(self, date: int, rdi: bytes) -> ContactRecord:
        """The record for (date, rdi) in its boundary form; KeyError when
        the log holds none."""
        return as_record(date, rdi, self.records[date, rdi])

    def observe(self, sightings, date: int, tick: int) -> "ContactLog":
        """Record one monitoring tick's sightings.

        `sightings` is an iterable of (rdi, DistanceClass); duplicate rdis
        within one call collapse to the first occurrence, and a (rdi, tick)
        pair is never counted twice.
        """
        if not 0 <= tick < TICKS_PER_DAY:
            raise ValueError(f"tick out of range: {tick}")
        seen_this_call = set()
        for rdi, cls in sightings:
            if rdi in seen_this_call:
                continue
            seen_this_call.add(rdi)
            self.observe_span(rdi, cls, date, tick, 1)
        return self

    def observe_span(
        self, rdi: bytes, cls: DistanceClass, date: int, start_tick: int, n_ticks: int
    ) -> "ContactLog":
        """Batched form of observe: one rdi seen at one class for
        `n_ticks` consecutive ticks. Within the day this equals `n_ticks`
        observe calls; a span that runs past tick 2879 is clipped at the end
        of the day, where observe would raise on the first tick beyond it."""
        if n_ticks <= 0:
            return self
        if not 0 <= start_tick < TICKS_PER_DAY:
            raise ValueError(f"start_tick out of range: {start_tick}")
        width = min(n_ticks, TICKS_PER_DAY - start_tick)
        key = (date, rdi)
        rec = self.records.get(key)
        if rec is None:
            near = mid = far = mask = 0
            first = start_tick
        else:
            near, mid, far, first, mask = rec
            if start_tick < first:
                mask <<= first - start_tick
                first = start_tick
        span = ((1 << width) - 1) << (start_tick - first)
        new_count = (span & ~mask).bit_count()
        if new_count:
            if cls == DistanceClass.NEAR:
                near += new_count
            elif cls == DistanceClass.MID:
                mid += new_count
            else:
                far += new_count
            self.records[key] = (near, mid, far, first, mask | span)
        return self

    def prune(self, today: int) -> "ContactLog":
        """Drop records older than the retention window."""
        cutoff = today - self.retention_days
        for key in [k for k in self.records if k[0] < cutoff]:
            del self.records[key]
        return self

    def export_history(self, from_date: int, to_date: int):
        """Records in [from_date, to_date], sorted by (date, first_tick).

        The export carries no device identity by construction: records hold
        only foreign identifiers and timing counts.
        """
        if from_date > to_date:
            raise EmptyRange(f"from_date {from_date} > to_date {to_date}")
        out = [
            as_record(date, rdi, value)
            for (date, rdi), value in self.records.items()
            if from_date <= date <= to_date
        ]
        out.sort(key=lambda r: (r.date, r.first_tick, r.foreign_rdi))
        return out


def as_record(date: int, rdi: bytes, value) -> ContactRecord:
    """The boundary form of the value a log stores for (date, rdi)."""
    near, mid, far, first, mask = value
    return ContactRecord(rdi, date, near, mid, far, mask << first)


def first_tick_of(value) -> int:
    """The first counted tick of a value a log stores."""
    return value[3]


def records_to_csv(records) -> str:
    """Serialize contact records to the history CSV format (LF-terminated)."""
    buf = io.StringIO()
    buf.write(HISTORY_CSV_HEADER + "\n")
    for rec in records:
        buf.write(
            f"{rec.date},{rec.foreign_rdi.hex()},{rec.near_ticks},"
            f"{rec.mid_ticks},{rec.far_ticks},{rec.first_tick},{rec.last_tick},"
            f"{len(rec.buckets)}\n"
        )
    return buf.getvalue()


def _lowest_mask(counts, first: int, last: int, bucket_count: int):
    """The lowest tick mask a device could have counted for a history row:
    ticks `first` and `last`, the first tick of each further bucket the row
    claims, then the remaining ticks from the front of the claimed buckets.
    None when no mask holds `sum(counts)` ticks from `first` to `last` in
    `bucket_count` buckets, or a count is negative."""
    if min(counts) < 0 or not 0 <= first <= last < TICKS_PER_DAY:
        return None
    lo, hi = first // TICKS_PER_BUCKET, last // TICKS_PER_BUCKET
    further = bucket_count - len({lo, hi})
    if not 0 <= further <= max(0, hi - lo - 1):
        return None
    bucket_bits = (1 << TICKS_PER_BUCKET) - 1
    mask = 1 << first | 1 << last
    claimed = bucket_bits << lo * TICKS_PER_BUCKET | bucket_bits << hi * TICKS_PER_BUCKET
    for b in range(lo + 1, lo + 1 + further):
        mask |= 1 << b * TICKS_PER_BUCKET
        claimed |= bucket_bits << b * TICKS_PER_BUCKET
    free = claimed & ((1 << last + 1) - (1 << first)) & ~mask
    need = sum(counts) - mask.bit_count()
    if not 0 <= need <= free.bit_count():
        return None
    for _ in range(need):
        low = free & -free
        mask |= low
        free ^= low
    return mask


def records_from_csv(text: str):
    """Parse history CSV. The file carries no tick mask, so each row gets
    the lowest mask a device could have counted for it; its first and last
    tick and bucket count are the row's, and `records_to_csv` writes the
    row back as it was read.

    Raises MalformedHistory, naming the line, on a bad header or a row that
    is short, long, or holds a non-hex rdi or a non-integer field, and on a
    row no device can write: a negative count, a tick outside the day,
    `first_tick > last_tick`, more ticks than `[first_tick, last_tick]`
    holds, or a `bucket_count` those ticks cannot fill; and on a second
    row for the same (date, rdi), since a device logs one record per key.
    """
    reader = csv.DictReader(io.StringIO(text))
    expected = HISTORY_CSV_HEADER.split(",")
    out = []
    seen = set()
    try:
        if reader.fieldnames != expected:
            raise MalformedHistory(
                f"line 1: bad header: {reader.fieldnames}")
        for row in reader:
            if None in row or None in row.values():
                raise MalformedHistory(
                    f"line {reader.line_num}: expected {len(expected)} fields")
            try:
                rdi = rdi_from_hex(row["rdi_hex"])
                date, near, mid, far, first, last, buckets = (
                    int(row[name]) for name in expected if name != "rdi_hex")
            except ValueError as exc:
                raise MalformedHistory(f"line {reader.line_num}: {exc}") from exc
            ticks = _lowest_mask((near, mid, far), first, last, buckets)
            if ticks is None:
                raise MalformedHistory(
                    f"line {reader.line_num}: no device logs these ticks")
            if (date, rdi) in seen:
                raise MalformedHistory(
                    f"line {reader.line_num}: second row for date {date}, "
                    f"rdi {row['rdi_hex']}")
            seen.add((date, rdi))
            out.append(ContactRecord(rdi, date, near, mid, far, ticks))
    except csv.Error as exc:
        raise MalformedHistory(f"line {reader.line_num}: {exc}") from exc
    return out


def log_from_records(records, retention_days: int = DEFAULT_RETENTION_DAYS) -> ContactLog:
    """Build a ContactLog from pre-accumulated records (e.g. a parsed CSV),
    each stored in the log's value form. Every record must hold a counted
    tick, as each one a device logs or `records_from_csv` returns does."""
    log = ContactLog(retention_days=retention_days)
    for rec in records:
        first = rec.first_tick
        log.records[(rec.date, rec.foreign_rdi)] = (
            rec.near_ticks, rec.mid_ticks, rec.far_ticks, first, rec.ticks >> first)
    return log
