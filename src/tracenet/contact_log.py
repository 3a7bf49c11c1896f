"""Device-local contact accounting.

Observations arrive on a 30-second tick grid: 2880 ticks per day, grouped
into 720 two-minute buckets. A record accumulates per-class tick counts for
one foreign identifier on one date; face-to-face time is the near+mid tick
count at half a minute per tick.

A log stores each record as one plain int that packs four 12-bit fields
(2880 < 4096) and one flag under the record's holes mask:

    holes << 49 | acted << 48 | first_tick << 36 | far << 24 | mid << 12 | near

The record spans the ticks from `first_tick` to its last counted tick, and
bit i of `holes` is set when tick `first_tick + i` lies inside that span but
was not counted. So the span's length is `near + mid + far` plus the number
of holes, bit 0 of `holes` is always clear, and no hole is at or past the
last tick. That is the record's only tick state. `acted` is set once the
device has acted on the record as a carrier contact (`mark_acted`). It never
leaves the device: the history CSV does not carry it, and an upload reads
only a record's date, rdi, counts and ticks. Two logs that counted the same
ticks hold equal ints until one of the devices acts on its record. An int,
unlike a tuple, is never tracked by the garbage collector, and a dict that
holds only bytes keys and int values is never tracked either: writing to a
log starts no young collection, and no collection pass walks a log however
large it grows. Only this module knows the layout: other code holds a stored
value in a `ContactRecord`, the named tuple `(rdi, date, record)` whose
`record` is the very int the log stores, and reads its fields through the
record's properties: `near_ticks`, `mid_ticks`, `far_ticks`, `first_tick`,
`last_tick`, `ticks` (the absolute mask, bit t for tick t), `bucket_count`,
`acted`, `total_ticks` and `face_to_face_minutes`. A count or the first tick
is read from the value's low bits, so it copies no part of a holes mask. The
history CSV carries no mask, so an upload does not disclose 30-second ticks;
a parsed row gets the lowest mask a device could have counted for it.

A log is partitioned by date, `{date: {rdi: value}}`, since the date is
the unit the protocol stores, expires and matches by: a write goes into the
one dict for its date, and `prune` drops whole days. The days are held in
ascending date order: a device writes today's date, so a new date almost
always goes last, and a write on an older new date sorts the days again.
So `prune` reads only the oldest days, as many as it drops plus one, never
every held date. `records` is a read-only flat view keyed by `(date, rdi)`,
for code that wants the log as one mapping.

Most contacts give one span per pair per day, so `observe_span` stores a
span on a key the log does not hold yet in closed form: every tick of it is
new and there is no hole, so the value is `start << 36 | w << 12 * cls`,
with the `w` counted ticks in the span's class field. That is a small int
below 2**48 however long the span, which numpy can also compute in int64.
Only a span on a key the log already holds is folded into the stored value,
by first claim; the fold decodes the holes into a tick mask and keeps the
`acted` flag.
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
# counts at `_COUNT_BITS * cls`, the first tick above them, the acted-on flag
# above that, and the holes mask above all five. A field is read from the
# value's low bits, so reading one copies no part of a holes mask.
_COUNT_BITS = 12
_FIELD = (1 << _COUNT_BITS) - 1
_FIRST_SHIFT = 3 * _COUNT_BITS
_ACTED = 1 << 4 * _COUNT_BITS
_HOLES_SHIFT = 4 * _COUNT_BITS + 1
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


# The members `classify_face_ticks` returns, bound once: on CPython 3.11 an
# attribute read on an enum class takes the metaclass's slow `__getattr__`.
_CATEGORY1 = Category.CATEGORY1
_CATEGORY2 = Category.CATEGORY2
_UNCRITICAL = Category.UNCRITICAL


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
    def tick_counts(self) -> tuple:
        """(near, mid, far) tick counts, read from the value at once."""
        counts = self.record & _COUNTS
        return counts & _FIELD, counts >> _COUNT_BITS & _FIELD, counts >> 2 * _COUNT_BITS

    @property
    def first_tick(self) -> int:
        """Lowest counted tick."""
        return (self.record & _FIRST) >> _FIRST_SHIFT

    @property
    def last_tick(self) -> int:
        """Highest counted tick: the span ends there."""
        return self.first_tick + _length(self.record) - 1

    @property
    def ticks(self) -> int:
        """The counted ticks as an absolute mask: bit t for tick t."""
        return _tick_mask(self.record) << self.first_tick

    @property
    def bucket_count(self) -> int:
        """The number of two-minute buckets holding a counted tick. After
        the fold, bit 4b of `t` is set when any tick of bucket b is."""
        t = self.ticks
        t |= t >> 1
        t |= t >> 2
        return (t & _BUCKET_STARTS).bit_count()

    @property
    def acted(self) -> bool:
        """Whether the device has acted on the record
        (`ContactLog.mark_acted`)."""
        return bool(self.record & _ACTED)

    @property
    def total_ticks(self) -> int:
        return self.near_ticks + self.mid_ticks + self.far_ticks

    @property
    def face_to_face_minutes(self) -> float:
        return (self.near_ticks + self.mid_ticks) * MINUTES_PER_TICK


def record_order(rec: ContactRecord) -> tuple:
    """The sort key of a record: `(date, first_tick, rdi)`, the order of an
    export and of a device's hits. The first tick is read from the value's
    low bits."""
    rdi, date, value = rec
    return date, (value & _FIRST) >> _FIRST_SHIFT, rdi


def _length(value: int) -> int:
    """The number of ticks a stored value spans: its counted ticks and its
    holes."""
    counts = value & _COUNTS
    return ((counts & _FIELD) + (counts >> _COUNT_BITS & _FIELD)
            + (counts >> 2 * _COUNT_BITS) + (value >> _HOLES_SHIFT).bit_count())


def _tick_mask(value: int) -> int:
    """A stored value's counted ticks, bit i for tick `first_tick + i`."""
    return ((1 << _length(value)) - 1) ^ value >> _HOLES_SHIFT


def _holes(mask: int) -> int:
    """The holes of a tick mask whose bit 0 is set: its clear bits below
    its highest set bit."""
    return ((1 << mask.bit_length()) - 1) ^ mask


def classify_face_ticks(face_ticks: int) -> Category:
    """Categorize a contact by its face-to-face (near + mid) tick count.

    Exactly at the threshold (30 ticks, 15 minutes) is Category 2: Category
    1 requires strictly more than `CATEGORY1_THRESHOLD_MINUTES`. A contact
    with no face-to-face tick (far only) is uncritical.
    """
    if face_ticks == 0:
        return _UNCRITICAL
    if face_ticks * MINUTES_PER_TICK > CATEGORY1_THRESHOLD_MINUTES:
        return _CATEGORY1
    return _CATEGORY2


def classify(record: ContactRecord) -> Category:
    """Categorize a contact record by its accumulated face-to-face minutes
    (`classify_face_ticks`)."""
    return classify_face_ticks(record.near_ticks + record.mid_ticks)


class ContactLog:
    """A device's contact records, partitioned by date: `days` maps each
    date to `{foreign rdi: value}`, in ascending date order, and holds no
    empty day; `prune` therefore costs one read per dropped day plus one,
    however many days the log holds. Each value is
    one int packing the record's three class counts, its first tick, whether
    the device has acted on it, and the uncounted ticks inside its span, so
    neither a value nor a day dict is ever tracked by the garbage collector.
    `records` is the same log as a read-only flat mapping keyed by
    `(date, rdi)`."""

    def __init__(self, retention_days: int = DEFAULT_RETENTION_DAYS):
        # date -> {rdi: holes << 49 | acted << 48 | first_tick << 36
        # | far << 24 | mid << 12 | near}; a record seen in one span has no
        # holes and is a small int. See the module docstring for why an int.
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

        `sightings` is an iterable of (rdi, DistanceClass). A (rdi, tick)
        pair is never counted twice, so duplicate rdis within one call
        collapse to the first occurrence.
        """
        if not 0 <= tick < TICKS_PER_DAY:
            raise ValueError(f"tick out of range: {tick}")
        for rdi, cls in sightings:
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
            # empty. A date below the newest held one puts the days back in
            # ascending order.
            days = self.days
            late = days and date < next(reversed(days))
            day = days[date] = {}
            if late:
                ordered = sorted(days.items())
                days.clear()
                days.update(ordered)
        shift = _COUNT_BITS * cls
        rec = day.get(rdi)
        if rec is None:
            # A fresh key: every tick of the span is new, so it has no
            # hole, and it is not acted on.
            day[rdi] = start_tick << _FIRST_SHIFT | width << shift
            return self
        first = (rec & _FIRST) >> _FIRST_SHIFT
        mask = _tick_mask(rec)
        if start_tick < first:
            mask <<= first - start_tick
            first = start_tick
        span = ((1 << width) - 1) << (start_tick - first)
        new_count = (span & ~mask).bit_count()
        if new_count:
            # A key counts each tick once, so no count field passes 2880.
            day[rdi] = (_holes(mask | span) << _HOLES_SHIFT | first << _FIRST_SHIFT
                        | rec & _ACTED | (rec & _COUNTS) + (new_count << shift))
        return self

    def mark_acted(self, records) -> list:
        """Mark the log's value for each record's (date, rdi) as acted on,
        and return, in order, the records whose value was not yet marked.
        Each record must be one the log holds, such as a match or an export
        of this log; a record given twice is returned once."""
        out = []
        for rec in records:
            day = self.days[rec.date]
            value = day[rec.rdi]
            if not value & _ACTED:
                day[rec.rdi] = value | _ACTED
                out.append(rec)
        return out

    def prune(self, today: int) -> "ContactLog":
        """Drop the days older than the retention window. The days are held
        in ascending order, so this reads the oldest date once for each day
        it drops, and once more to find the first date it keeps."""
        cutoff = today - self.retention_days
        days = self.days
        while days:
            date = next(iter(days))
            if date >= cutoff:
                break
            del days[date]
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
        out.sort(key=record_order)
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
    `bucket_count` buckets. Every argument is a non-negative int.

    The remaining ticks are the free ticks below the shortest prefix that
    holds enough of them, found by a binary search on its length: about a
    dozen big-int operations, however many ticks the row holds."""
    if not first <= last < TICKS_PER_DAY:
        return None
    lo, hi = first // TICKS_PER_BUCKET, last // TICKS_PER_BUCKET
    further = bucket_count - len({lo, hi})
    if not 0 <= further <= max(0, hi - lo - 1):
        return None
    bucket_bits = (1 << TICKS_PER_BUCKET) - 1
    # The first ticks of buckets lo + 1 to lo + further.
    starts = _BUCKET_STARTS & ((1 << (lo + 1 + further) * TICKS_PER_BUCKET)
                               - (1 << (lo + 1) * TICKS_PER_BUCKET))
    mask = 1 << first | 1 << last | starts
    claimed = (bucket_bits << lo * TICKS_PER_BUCKET | bucket_bits << hi * TICKS_PER_BUCKET
               | starts * bucket_bits)
    free = claimed & ((1 << last + 1) - (1 << first)) & ~mask
    need = sum(counts) - mask.bit_count()
    if not 0 <= need <= free.bit_count():
        return None
    # The shortest prefix of `free` holding `need` ticks is `low` long: the
    # prefix of length `high` holds enough, and none shorter than `low` does.
    low, high = 0, last + 1
    while low < high:
        mid = (low + high) // 2
        if (free & ((1 << mid) - 1)).bit_count() >= need:
            high = mid
        else:
            low = mid + 1
    return mask | free & ((1 << low) - 1)


def _pack(near: int, mid: int, far: int, first: int, ticks: int) -> int:
    """The value a log stores for these counts and an absolute tick mask
    whose lowest set bit is `first`."""
    return (_holes(ticks >> first) << _HOLES_SHIFT | first << _FIRST_SHIFT
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
    `record` value. The records may come in any date order; the log's days
    are built in ascending date order.

    Raises ValueError on a value no device logs: one with no counted tick,
    a hole at bit 0 (the first tick is counted) or at or past its last tick
    (the last tick is counted), or a span that runs past tick 2879. Each
    record a device logs or `records_from_csv` returns is accepted.
    """
    log = ContactLog()
    days = {}
    for rec in records:
        holes = rec.record >> _HOLES_SHIFT
        length = _length(rec.record)
        if not (0 < length and 0 <= holes and not holes & 1
                and holes.bit_length() < length
                and rec.first_tick + length <= TICKS_PER_DAY):
            raise ValueError(
                f"no device logs this record: date {rec.date}, rdi {rec.rdi.hex()}")
        days.setdefault(rec.date, {})[rec.rdi] = rec.record
    log.days.update(sorted(days.items()))
    return log
