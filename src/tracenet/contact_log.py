"""Device-local contact accounting.

Observations arrive on a 30-second tick grid: 2880 ticks per day, grouped
into 720 two-minute buckets. A record accumulates per-class tick counts for
one foreign identifier on one date; face-to-face time is the near+mid tick
count at half a minute per tick. Which ticks a record has counted is one
integer bitmask (bit t for tick t); the record's buckets are derived from it.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field
from enum import Enum

from .ident import DistanceClass, rdi_from_hex, rdi_to_hex

TICKS_PER_DAY = 2880
TICKS_PER_BUCKET = 4
BUCKETS_PER_DAY = 720
MINUTES_PER_TICK = 0.5

DEFAULT_RETENTION_DAYS = 21
DEFAULT_CATEGORY1_THRESHOLD_MINUTES = 15.0

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
    """Accumulated observations of one foreign identifier on one date."""

    foreign_rdi: bytes
    date: int
    near_ticks: int = 0
    mid_ticks: int = 0
    far_ticks: int = 0
    first_tick: int = -1
    last_tick: int = -1
    # Bit t is set once tick t has been counted, for per-(rdi, tick) dedup.
    # Not exported.
    ticks: int = field(default=0, repr=False)

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

    def _add_tick(self, tick: int, cls: DistanceClass) -> None:
        bit = 1 << tick
        if self.ticks & bit:
            return
        self.ticks |= bit
        if cls == DistanceClass.NEAR:
            self.near_ticks += 1
        elif cls == DistanceClass.MID:
            self.mid_ticks += 1
        else:
            self.far_ticks += 1
        if self.first_tick < 0 or tick < self.first_tick:
            self.first_tick = tick
        if tick > self.last_tick:
            self.last_tick = tick


def classify(
    record: ContactRecord,
    threshold_minutes: float = DEFAULT_CATEGORY1_THRESHOLD_MINUTES,
) -> Category:
    """Categorize a contact by accumulated face-to-face minutes.

    Exactly at the threshold is Category 2: Category 1 requires strictly
    more than `threshold_minutes`. Far-only contacts are uncritical.
    """
    face_ticks = record.near_ticks + record.mid_ticks
    if face_ticks == 0:
        return Category.UNCRITICAL
    if face_ticks * MINUTES_PER_TICK > threshold_minutes:
        return Category.CATEGORY1
    return Category.CATEGORY2


class ContactLog:
    """A device's contact records, keyed by (date, foreign rdi)."""

    def __init__(self, retention_days: int = DEFAULT_RETENTION_DAYS):
        self.records: dict = {}  # (date, rdi) -> ContactRecord
        self.retention_days = retention_days

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
            rec = self.records.get((date, rdi))
            if rec is None:
                rec = ContactRecord(foreign_rdi=rdi, date=date)
                self.records[(date, rdi)] = rec
            rec._add_tick(tick, cls)
        return self

    def observe_span(
        self, rdi: bytes, cls: DistanceClass, date: int, start_tick: int, n_ticks: int
    ) -> "ContactLog":
        """Batched form of observe: one rdi seen at one class for
        `n_ticks` consecutive ticks. Equivalent to n_ticks observe calls."""
        if n_ticks <= 0:
            return self
        if not 0 <= start_tick < TICKS_PER_DAY:
            raise ValueError(f"start_tick out of range: {start_tick}")
        end = start_tick + n_ticks
        if end > TICKS_PER_DAY:
            end = TICKS_PER_DAY
        key = (date, rdi)
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = ContactRecord(rdi, date)
        span = ((1 << (end - start_tick)) - 1) << start_tick
        new_count = (span & ~rec.ticks).bit_count()
        if new_count:
            rec.ticks |= span
            if cls == DistanceClass.NEAR:
                rec.near_ticks += new_count
            elif cls == DistanceClass.MID:
                rec.mid_ticks += new_count
            else:
                rec.far_ticks += new_count
            if rec.first_tick < 0 or start_tick < rec.first_tick:
                rec.first_tick = start_tick
            if end - 1 > rec.last_tick:
                rec.last_tick = end - 1
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
            rec
            for rec in self.records.values()
            if from_date <= rec.date <= to_date
        ]
        out.sort(key=lambda r: (r.date, r.first_tick, r.foreign_rdi))
        return out


def records_to_csv(records) -> str:
    """Serialize contact records to the history CSV format (LF-terminated)."""
    buf = io.StringIO()
    buf.write(HISTORY_CSV_HEADER + "\n")
    for rec in records:
        buf.write(
            f"{rec.date},{rdi_to_hex(rec.foreign_rdi)},{rec.near_ticks},"
            f"{rec.mid_ticks},{rec.far_ticks},{rec.first_tick},{rec.last_tick},"
            f"{len(rec.buckets)}\n"
        )
    return buf.getvalue()


def records_from_csv(text: str):
    """Parse history CSV. Tick indices are not serialized, only the bucket
    count, so parsed records carry an empty tick mask.

    Raises MalformedHistory, naming the line, on a bad header or a row that
    is short, long, or holds a non-hex rdi or a non-integer field.
    """
    reader = csv.DictReader(io.StringIO(text))
    expected = HISTORY_CSV_HEADER.split(",")
    out = []
    try:
        if reader.fieldnames != expected:
            raise MalformedHistory(
                f"line 1: bad header: {reader.fieldnames}")
        for row in reader:
            if None in row or None in row.values():
                raise MalformedHistory(
                    f"line {reader.line_num}: expected {len(expected)} fields")
            try:
                rec = ContactRecord(
                    foreign_rdi=rdi_from_hex(row["rdi_hex"]),
                    date=int(row["date"]),
                    near_ticks=int(row["near_ticks"]),
                    mid_ticks=int(row["mid_ticks"]),
                    far_ticks=int(row["far_ticks"]),
                    first_tick=int(row["first_tick"]),
                    last_tick=int(row["last_tick"]),
                )
            except ValueError as exc:
                raise MalformedHistory(f"line {reader.line_num}: {exc}") from exc
            out.append(rec)
    except csv.Error as exc:
        raise MalformedHistory(f"line {reader.line_num}: {exc}") from exc
    return out


def log_from_records(records, retention_days: int = DEFAULT_RETENTION_DAYS) -> ContactLog:
    """Build a ContactLog from pre-accumulated records (e.g. a parsed CSV)."""
    log = ContactLog(retention_days=retention_days)
    for rec in records:
        log.records[(rec.date, rec.foreign_rdi)] = rec
    return log
