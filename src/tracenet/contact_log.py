"""Device-local contact accounting.

Observations arrive on a 30-second tick grid: 2880 ticks per day, grouped
into 720 two-minute buckets. A record accumulates per-class tick counts for
one foreign identifier on one date; face-to-face time is the near+mid tick
count at half a minute per tick.

A log stores each record as one plain int that packs four 12-bit fields
(2880 < 4096) under the record's tick mask:

    mask << 48 | first_tick << 36 | far << 24 | mid << 12 | near

Bit i of `mask` is set once tick `first_tick + i` has been counted, so bit 0
is always set. That is the record's only tick state, and two logs that
counted the same ticks hold equal ints. An int, unlike a tuple, is never
tracked by the garbage collector, and a dict that holds only bytes keys and
int values is never tracked either: writing to a log starts no young
collection, and no collection pass walks a log however large it grows. Only
this module knows the layout: other code holds a stored value in a
`ContactRecord`, the named tuple `(rdi, date, record)` whose `record` is
the very int the log stores, and reads its fields through the record's
properties: `near_ticks`, `mid_ticks`, `far_ticks`, `first_tick`,
`last_tick`, `ticks` (the absolute mask, bit t for tick t), `bucket_count`,
`total_ticks` and `face_to_face_minutes`. A count or the first tick is read
from the value's low bits, so it copies no part of a long mask. The history
CSV carries no mask, so an upload does not disclose 30-second ticks; a
parsed row gets the lowest mask a device could have counted for it.

A log is partitioned by date, `{date: {rdi: value}}`, since the date is
the unit the protocol stores, expires and matches by: a write goes into the
one dict for its date, and `prune` drops whole days. `records` is a
read-only flat view keyed by `(date, rdi)`, for code that wants the log as
one mapping.

Most contacts give one span per pair per day, so `observe_span` stores a
span on a key the log does not hold yet in closed form: every tick of it is
new, and the value is `(2**w - 1) << 48 | start << 36 | w << 12 * cls`,
with the `w` counted ticks in the span's class field. Only a span on a key
the log already holds is folded into the stored value, by first claim.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from typing import NamedTuple

from .ident import DistanceClass, rdi_from_hex

TICKS_PER_DAY = 2880
TICKS_PER_BUCKET = 4
BUCKETS_PER_DAY = 720
MINUTES_PER_TICK = 0.5

DEFAULT_RETENTION_DAYS = 21
CATEGORY1_THRESHOLD_MINUTES = 15.0

# A stored value's fields (see the module docstring): the near, mid and far
# counts at `_COUNT_BITS * cls`, the first tick above them, and the mask
# above all four. A field is read from the value's low bits, so reading one
# copies no part of a long mask.
_COUNT_BITS = 12
_FIELD = (1 << _COUNT_BITS) - 1
_FIRST_SHIFT = 3 * _COUNT_BITS
_MASK_SHIFT = 4 * _COUNT_BITS
_MASK_ONE = 1 << _MASK_SHIFT
_COUNTS = (1 << _FIRST_SHIFT) - 1
_FIRST = _FIELD << _FIRST_SHIFT
# Bit `TICKS_PER_BUCKET * b` set for every bucket b of the day.
_BUCKET_STARTS = int("0001" * BUCKETS_PER_DAY, 2)

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


class ContactRecord(NamedTuple):
    """Accumulated observations of one foreign identifier on one date: the
    value a log stores for `(date, rdi)`, read through properties."""

    rdi: bytes
    date: int
    # The very value the log stores: one packed int whose layout only this
    # module knows (see the module docstring).
    record: int

    @property
    def near_ticks(self) -> int:
        return self.record & _FIELD

    @property
    def mid_ticks(self) -> int:
        return (self.record & _COUNTS) >> _COUNT_BITS & _FIELD

    @property
    def far_ticks(self) -> int:
        return (self.record & _COUNTS) >> 2 * _COUNT_BITS

    @property
    def first_tick(self) -> int:
        """Lowest counted tick."""
        return (self.record & _FIRST) >> _FIRST_SHIFT

    @property
    def last_tick(self) -> int:
        """Highest counted tick: the mask's bit 0 is the first tick."""
        return self.first_tick + self.record.bit_length() - 1 - _MASK_SHIFT

    @property
    def ticks(self) -> int:
        """The counted ticks as an absolute mask: bit t for tick t."""
        return self.record >> _MASK_SHIFT << self.first_tick

    @property
    def bucket_count(self) -> int:
        """The number of two-minute buckets holding a counted tick. After
        the fold, bit 4b of `t` is set when any tick of bucket b is."""
        t = self.ticks
        t |= t >> 1
        t |= t >> 2
        return (t & _BUCKET_STARTS).bit_count()

    @property
    def total_ticks(self) -> int:
        return self.near_ticks + self.mid_ticks + self.far_ticks

    @property
    def face_to_face_minutes(self) -> float:
        return (self.near_ticks + self.mid_ticks) * MINUTES_PER_TICK


def classify_face_ticks(face_ticks: int) -> Category:
    """Categorize a contact by its face-to-face (near + mid) tick count.

    Exactly at the threshold (30 ticks, 15 minutes) is Category 2: Category
    1 requires strictly more than `CATEGORY1_THRESHOLD_MINUTES`. A contact
    with no face-to-face tick (far only) is uncritical.
    """
    if face_ticks == 0:
        return Category.UNCRITICAL
    if face_ticks * MINUTES_PER_TICK > CATEGORY1_THRESHOLD_MINUTES:
        return Category.CATEGORY1
    return Category.CATEGORY2


def classify(record: ContactRecord) -> Category:
    """Categorize a contact record by its accumulated face-to-face minutes
    (`classify_face_ticks`)."""
    return classify_face_ticks(record.near_ticks + record.mid_ticks)


class ContactLog:
    """A device's contact records, partitioned by date: `days` maps each
    date to `{foreign rdi: value}`, and holds no empty day. Each value is
    one int packing the record's three class counts, its first tick and its
    tick mask, so neither a value nor a day dict is ever tracked by the
    garbage collector. `records` is the same log as a read-only flat
    mapping keyed by `(date, rdi)`."""

    def __init__(self, retention_days: int = DEFAULT_RETENTION_DAYS):
        # date -> {rdi: mask << 48 | first_tick << 36 | far << 24 | mid << 12
        # | near}; see the module docstring for why an int.
        self.days: dict = {}
        self.retention_days = retention_days

    @property
    def records(self) -> "RecordsView":
        return RecordsView(self.days)

    def record(self, date: int, rdi: bytes) -> ContactRecord:
        """The record for (date, rdi); KeyError when the log holds none."""
        return ContactRecord(rdi, date, self.days[date][rdi])

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
        width = TICKS_PER_DAY - start_tick
        if n_ticks < width:
            width = n_ticks
        day = self.days.get(date)
        if day is None:
            # The span counts at least one tick, so the new day is not left
            # empty.
            day = self.days[date] = {}
        shift = _COUNT_BITS * cls
        rec = day.get(rdi)
        if rec is None:
            # A fresh key: every tick of the span is new.
            # (2**width - 1) << 48 plus the fields, which stay below 2**48.
            day[rdi] = (1 << _MASK_SHIFT + width) - (
                _MASK_ONE - (start_tick << _FIRST_SHIFT | width << shift))
            return self
        first = (rec & _FIRST) >> _FIRST_SHIFT
        mask = rec >> _MASK_SHIFT
        if start_tick < first:
            mask <<= first - start_tick
            first = start_tick
        span = ((1 << width) - 1) << (start_tick - first)
        new_count = (span & ~mask).bit_count()
        if new_count:
            # A key counts each tick once, so no count field passes 2880.
            day[rdi] = ((mask | span) << _MASK_SHIFT | first << _FIRST_SHIFT
                        | (rec & _COUNTS) + (new_count << shift))
        return self

    def prune(self, today: int) -> "ContactLog":
        """Drop the days older than the retention window."""
        cutoff = today - self.retention_days
        for date in [d for d in self.days if d < cutoff]:
            del self.days[date]
        return self

    def export_history(self, from_date: int, to_date: int):
        """Records in [from_date, to_date], sorted by (date, first_tick,
        rdi).

        The export carries no device identity by construction: records hold
        only foreign identifiers and timing counts.
        """
        if from_date > to_date:
            raise EmptyRange(f"from_date {from_date} > to_date {to_date}")
        out = [
            ContactRecord(rdi, date, value)
            for date, day in self.days.items()
            if from_date <= date <= to_date
            for rdi, value in day.items()
        ]
        out.sort(key=lambda r: (r.date, r.first_tick, r.rdi))
        return out


class RecordsView(Mapping):
    """Read-only view of a log's days as one mapping `(date, rdi) -> value`.
    It copies nothing: it reads the days it was given on each access, and
    pickles with them."""

    def __init__(self, days: dict):
        self._days = days

    def __getitem__(self, key):
        date, rdi = key
        return self._days[date][rdi]

    def __iter__(self):
        for date, day in self._days.items():
            for rdi in day:
                yield date, rdi

    def __len__(self) -> int:
        return sum(map(len, self._days.values()))


def _history_row(rec: ContactRecord) -> str:
    """A record's history CSV row, without its line end."""
    return (f"{rec.date},{rec.rdi.hex()},{rec.near_ticks},"
            f"{rec.mid_ticks},{rec.far_ticks},{rec.first_tick},{rec.last_tick},"
            f"{rec.bucket_count}")


def records_to_csv(records) -> str:
    """Serialize contact records to the history CSV format (LF-terminated)."""
    return "".join([HISTORY_CSV_HEADER + "\n"]
                   + [_history_row(rec) + "\n" for rec in records])


def _lowest_mask(counts, first: int, last: int, bucket_count: int):
    """The lowest tick mask a device could have counted for a history row:
    ticks `first` and `last`, the first tick of each further bucket the row
    claims, then the remaining ticks from the front of the claimed buckets.
    None when no mask holds `sum(counts)` ticks from `first` to `last` in
    `bucket_count` buckets. Every argument is a non-negative int."""
    if not first <= last < TICKS_PER_DAY:
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


def _pack(near: int, mid: int, far: int, first: int, ticks: int) -> int:
    """The value a log stores for these counts and an absolute tick mask
    whose lowest set bit is `first`."""
    return (ticks >> first << _MASK_SHIFT | first << _FIRST_SHIFT
            | far << 2 * _COUNT_BITS | mid << _COUNT_BITS | near)


def records_from_csv(text: str):
    """Parse history CSV; `records_to_csv` is its only grammar. A row is
    read with `int` and `rdi_from_hex`, checked for what a device can log,
    and accepted only if `_history_row` writes the parsed record back as
    the row. The file carries no tick mask, so each row gets the lowest
    mask a device could have counted for it.

    Raises MalformedHistory, naming the line, on a bad header, a missing
    final newline, a row that does not read as 8 fields or holds a negative
    one, a row no device logs (see `_lowest_mask`), a row written back
    differently, and a second row for a (date, rdi), which a device logs
    once.
    """
    names = HISTORY_CSV_HEADER.split(",")
    lines = text.split("\n")
    if lines[0] != HISTORY_CSV_HEADER:
        raise MalformedHistory(f"line 1: bad header: {lines[0]!r}")
    if lines[-1]:
        raise MalformedHistory(f"line {len(lines)}: no final newline")
    out = []
    seen = set()
    for lineno, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != len(names):
            raise MalformedHistory(
                f"line {lineno}: expected {len(names)} fields, got {len(fields)}")
        try:
            rdi = rdi_from_hex(fields[1])
            values = [int(value) for i, value in enumerate(fields) if i != 1]
        except ValueError as exc:
            raise MalformedHistory(f"line {lineno}: {exc}") from exc
        for name, value in zip(names[:1] + names[2:], values):
            if value < 0:
                raise MalformedHistory(f"line {lineno}: {name} must be >= 0, got {value}")
        date, near, mid, far, first, last, buckets = values
        ticks = _lowest_mask((near, mid, far), first, last, buckets)
        if ticks is None:
            raise MalformedHistory(f"line {lineno}: no device logs these ticks")
        rec = ContactRecord(rdi, date, _pack(near, mid, far, first, ticks))
        written = _history_row(rec)
        if written != line:
            raise MalformedHistory(
                f"line {lineno}: records_to_csv writes {written!r}, got {line!r}")
        if (date, rdi) in seen:
            raise MalformedHistory(
                f"line {lineno}: second row for date {date}, rdi {fields[1]}")
        seen.add((date, rdi))
        out.append(rec)
    return out


def log_from_records(records) -> ContactLog:
    """Build a ContactLog from records (e.g. a parsed CSV), each storing its
    `record` value.

    Raises ValueError on a value no device logs: one whose mask has bit 0
    clear (no counted tick is its first), whose mask runs past tick 2879,
    or whose class counts do not add up to its counted ticks. Each record a
    device logs or `records_from_csv` returns is accepted.
    """
    log = ContactLog()
    for rec in records:
        mask = rec.record >> _MASK_SHIFT
        if not (mask > 0 and mask & 1
                and rec.first_tick + mask.bit_length() <= TICKS_PER_DAY
                and rec.total_ticks == mask.bit_count()):
            raise ValueError(
                f"no device logs this record: date {rec.date}, rdi {rec.rdi.hex()}")
        log.days.setdefault(rec.date, {})[rec.rdi] = rec.record
    return log
