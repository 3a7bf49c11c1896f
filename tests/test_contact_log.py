import gc
import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tracenet.contact_log import (
    HISTORY_CSV_HEADER,
    Category,
    ContactLog,
    ContactRecord,
    EmptyRange,
    MalformedHistory,
    _lowest_mask,
    _pack,
    classify,
    log_from_records,
    records_from_csv,
    records_to_csv,
)
from tracenet.ident import DistanceClass

NEAR = DistanceClass.NEAR
MID = DistanceClass.MID
FAR = DistanceClass.FAR

X = bytes(range(16))
Y = bytes(range(16, 32))


def test_observe_base_case():
    log = ContactLog()
    log.observe([(X, NEAR)], date=0, tick=0)
    rec = log.record(0, X)
    assert rec.near_ticks == 1
    assert rec.mid_ticks == rec.far_ticks == 0
    assert rec.bucket_count == 1
    assert rec.first_tick == rec.last_tick == 0


def test_observe_updates_duration_on_reobservation():
    log = ContactLog()
    log.observe([(X, NEAR)], date=0, tick=0)
    log.observe([(X, MID)], date=0, tick=1)
    rec = log.record(0, X)
    assert (rec.near_ticks, rec.mid_ticks) == (1, 1)
    assert rec.first_tick == 0 and rec.last_tick == 1


def test_observe_dedups_within_one_call():
    log = ContactLog()
    log.observe([(X, NEAR), (X, FAR)], date=0, tick=0)
    rec = log.record(0, X)
    assert rec.total_ticks == 1
    assert rec.near_ticks == 1  # first occurrence wins


def test_observe_one_increment_per_tick():
    log = ContactLog()
    log.observe([(X, NEAR)], date=0, tick=5)
    log.observe([(X, NEAR)], date=0, tick=5)
    assert log.record(0, X).near_ticks == 1


def test_last_tick_of_day_is_bucket_719():
    log = ContactLog()
    log.observe([(X, NEAR)], date=0, tick=2879)
    rec = log.record(0, X)
    assert rec.last_tick // 4 == 719
    assert rec.bucket_count == 1


def test_tick_out_of_range_rejected():
    with pytest.raises(ValueError):
        ContactLog().observe([(X, NEAR)], date=0, tick=2880)


@pytest.mark.parametrize("start", [-1, 2880])
def test_span_start_out_of_range_rejected(start):
    with pytest.raises(ValueError, match="start_tick out of range"):
        ContactLog().observe_span(X, NEAR, 0, start, 1)


def test_six_neighbors_twelve_hours_storage_bound():
    # 6 devices seen every 30-s tick for 12 hours: 360 two-minute buckets
    # each, 2160 bucket-entries in total.
    log = ContactLog()
    rdis = [bytes([i]) * 16 for i in range(6)]
    for tick in range(1440):
        log.observe([(rdi, NEAR) for rdi in rdis], date=0, tick=tick)
    assert len(log.records) == 6
    for rdi in rdis:
        assert log.record(0, rdi).bucket_count == 360
    assert sum(log.record(*key).bucket_count for key in log.records) == 2160


def logged_record(near=0, mid=0, far=0):
    """The record a device logs for X on date 0 after seeing it near, then
    mid, then far, in one run of ticks from tick 0."""
    log = ContactLog()
    start = 0
    for cls, n in ((NEAR, near), (MID, mid), (FAR, far)):
        log.observe_span(X, cls, 0, start, n)
        start += n
    return log.record(0, X)


def packed(mask, first, near=0, mid=0, far=0, acted=0):
    """A stored value laid out by hand from a tick mask relative to
    `first`: the mask's holes (its clear bits below its highest set bit)
    above the acted-on bit above the first tick above the far, mid and near
    counts, in 12-bit fields."""
    holes = ((1 << mask.bit_length()) - 1) & ~mask
    return holes << 49 | acted << 48 | first << 36 | far << 24 | mid << 12 | near


@pytest.mark.parametrize(
    "near,mid,far,expected",
    [
        (31, 0, 0, Category.CATEGORY1),  # 15.5 min
        (29, 0, 0, Category.CATEGORY2),  # 14.5 min
        (30, 0, 0, Category.CATEGORY2),  # exactly 15.0 min: strict 'more than'
        (0, 0, 120, Category.UNCRITICAL),
        (0, 31, 0, Category.CATEGORY1),  # mid counts as face-to-face
        (16, 15, 0, Category.CATEGORY1),  # mixed 15.5 min
        (0, 0, 0, Category.UNCRITICAL),
    ],
)
def test_classification_boundaries(near, mid, far, expected):
    # No device logs a record with no tick: its value has every field 0.
    rec = logged_record(near, mid, far) if near + mid + far else ContactRecord(X, 0, 0)
    assert classify(rec) == expected


def test_classify_depends_only_on_counts():
    a = ContactLog()
    b = ContactLog()
    ticks = [5, 100, 6, 99, 1000]
    for t in ticks:
        a.observe([(X, NEAR)], 0, t)
    for t in reversed(ticks):
        b.observe([(X, NEAR)], 0, t)
    assert classify(a.record(0, X)) == classify(b.record(0, X))


def test_prune_boundaries():
    log = ContactLog(retention_days=21)
    log.observe([(X, NEAR)], date=10, tick=0)
    log.observe([(Y, NEAR)], date=9, tick=0)
    log.prune(today=31)
    assert (10, X) in log.records
    assert (9, Y) not in log.records


def test_prune_empty_log_is_identity():
    log = ContactLog()
    log.prune(today=100)
    assert log.records == {}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                       st.sampled_from([X, Y]),
                       st.integers(min_value=0, max_value=2879)),
             min_size=1, max_size=30),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=0, max_value=25),
    st.randoms(use_true_random=False),
)
def test_days_stay_ascending_and_prune_keeps_the_window(writes, today, retention, rng):
    # Dates arrive in any order, through observe_span and, shuffled, through
    # log_from_records; prune stops at the first date it keeps, so it must
    # find the days ascending.
    written = ContactLog(retention_days=retention)
    for date, rdi, tick in writes:
        written.observe_span(rdi, NEAR, date, tick, 1)
    records = [ContactRecord(rdi, date, value)
               for date, day in written.days.items() for rdi, value in day.items()]
    rng.shuffle(records)
    built = log_from_records(records)
    built.retention_days = retention
    assert built.days == written.days
    for log in (written, built):
        assert list(log.days) == sorted(log.days)
        kept = {d: day for d, day in log.days.items() if d >= today - retention}
        log.prune(today)
        assert log.days == kept
        assert list(log.days) == sorted(log.days)


def test_export_history_filters_and_sorts():
    log = ContactLog()
    log.observe([(X, NEAR)], date=5, tick=10)
    log.observe([(Y, NEAR)], date=6, tick=3)
    log.observe([(X, NEAR)], date=7, tick=1)
    out = log.export_history(6, 7)
    assert [(r.date, r.rdi) for r in out] == [(6, Y), (7, X)]
    assert log.export_history(8, 9) == []


def test_export_history_rejects_empty_range():
    with pytest.raises(EmptyRange):
        ContactLog().export_history(9, 8)


def test_export_partition_property():
    # Full-range export equals the concatenation of per-day exports.
    rng = random.Random(17)
    log = ContactLog()
    for _ in range(300):
        rdi = rng.randbytes(16)
        date = rng.randrange(0, 10)
        tick = rng.randrange(0, 2880)
        cls = DistanceClass(rng.randrange(3))
        log.observe([(rdi, cls)], date, tick)
    whole = log.export_history(0, 9)
    per_day = [rec for d in range(10) for rec in log.export_history(d, d)]
    assert whole == per_day


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),  # start tick
            st.integers(min_value=1, max_value=30),  # span length
            st.sampled_from([NEAR, MID, FAR]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_observe_span_equals_repeated_observe(spans):
    batched = ContactLog()
    single = ContactLog()
    for start, n, cls in spans:
        batched.observe_span(X, cls, 0, start, n)
        for tick in range(start, start + n):
            single.observe([(X, cls)], 0, tick)
    a = batched.record(0, X)
    b = single.record(0, X)
    assert (a.near_ticks, a.mid_ticks, a.far_ticks) == (b.near_ticks, b.mid_ticks, b.far_ticks)
    assert (a.ticks, a.bucket_count) == (b.ticks, b.bucket_count)
    assert (a.first_tick, a.last_tick) == (b.first_tick, b.last_tick)
    assert batched.records == single.records
    # With one class, the counted ticks alone fix the record. Replayed in
    # reverse, a span that starts before the record's first tick shifts
    # its mask up; the stored values must still be equal.
    forward = ContactLog()
    reverse = ContactLog()
    for start, n, _ in spans:
        forward.observe_span(X, NEAR, 0, start, n)
    for start, n, _ in reversed(spans):
        reverse.observe_span(X, NEAR, 0, start, n)
    assert forward.records == reverse.records


def per_tick_reference(spans, date=4):
    """A log built by one observe call per counted tick of each span."""
    log = ContactLog()
    for start, n, cls in spans:
        for tick in range(start, min(start + n, 2880)):
            log.observe([(X, cls)], date, tick)
    return log


@pytest.mark.parametrize("cls", [NEAR, MID, FAR])
@pytest.mark.parametrize("start,n", [
    (0, 1), (100, 37), (0, 2880), (2879, 1), (2879, 40),
    (2870, 10), (2870, 11), (2870, 500), (5, 10**6),
])
def test_fresh_span_is_stored_in_closed_form(cls, start, n):
    # A span on a key the log does not hold yet, including one that runs
    # past tick 2879, stores what counting its ticks one by one stores.
    log = ContactLog().observe_span(X, cls, 4, start, n)
    assert log.days == per_tick_reference([(start, n, cls)]).days
    width = min(n, 2880 - start)
    rec = log.record(4, X)
    assert (rec.near_ticks, rec.mid_ticks, rec.far_ticks) == tuple(
        width if c == cls else 0 for c in (NEAR, MID, FAR))
    assert rec.ticks == ((1 << width) - 1) << start
    # A record seen in one span has no hole: its value is the first tick
    # and the clipped width in the span's class field, a small int below
    # 2**48 however long the span.
    assert rec.record == start << 36 | width << 12 * cls
    assert rec.record < 2**48

@pytest.mark.parametrize("n", [0, -1, -2880])
def test_empty_span_stores_nothing_and_creates_no_day(n):
    log = ContactLog().observe_span(Y, NEAR, 3, 10, 5)
    for cls in (NEAR, MID, FAR):
        log.observe_span(X, cls, 4, 10, n)
        log.observe_span(X, cls, 3, 10, n)
    assert log.days == ContactLog().observe_span(Y, NEAR, 3, 10, 5).days


@pytest.mark.parametrize("spans", [
    [(100, 20, NEAR), (110, 20, MID)],  # second span starts inside the first
    [(110, 20, MID), (100, 20, NEAR)],  # second span starts before the first
    [(100, 5, FAR), (2000, 900, NEAR)],  # disjoint; the second is clipped
    [(0, 2880, MID), (0, 2880, NEAR)],  # nothing new for the second
])
def test_second_span_on_a_key_folds_by_first_claim(spans):
    log = ContactLog()
    for start, n, cls in spans:
        log.observe_span(X, cls, 4, start, n)
    assert log.days == per_tick_reference(spans).days


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2879),  # start tick
            st.integers(min_value=1, max_value=120),  # span length, may pass day end
            st.sampled_from([NEAR, MID, FAR]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_tick_mask_matches_plain_set_oracle(spans):
    # The oracle keeps the counted ticks as a plain set; overlapping spans
    # count only their new ticks, for the class of the span that adds them.
    log = ContactLog()
    ticks = set()
    counts = {NEAR: 0, MID: 0, FAR: 0}
    for start, n, cls in spans:
        log.observe_span(X, cls, 0, start, n)
        span = set(range(start, min(start + n, 2880)))
        counts[cls] += len(span - ticks)
        ticks |= span
    rec = log.record(0, X)
    assert (rec.near_ticks, rec.mid_ticks, rec.far_ticks) == (
        counts[NEAR], counts[MID], counts[FAR])
    assert rec.ticks == sum(1 << t for t in ticks)
    assert rec.bucket_count == len({t // 4 for t in ticks})
    assert (rec.first_tick, rec.last_tick) == (min(ticks), max(ticks))
    assert rec.record == _pack(counts[NEAR], counts[MID], counts[FAR],
                               min(ticks), sum(1 << t for t in ticks))


@settings(max_examples=200, deadline=None)
@example([(3, 2, NEAR)])  # straddles buckets 0 and 1
@example([(2879, 1, FAR)])  # the day's last tick, alone in bucket 719
@example([(0, 2880, MID)])  # every tick of the day
@example([(2876, 4, NEAR), (0, 1, MID), (7, 2, FAR)])
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2879),  # start tick
            st.integers(min_value=1, max_value=9) | st.integers(min_value=1, max_value=2880),
            st.sampled_from([NEAR, MID, FAR]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_bucket_count_equals_the_set_of_buckets_reference(spans):
    ticks = set()
    for start, n, _ in spans:
        ticks |= set(range(start, min(start + n, 2880)))
    rec = spans_log(spans).record(4, X)
    assert rec.bucket_count == len({t // 4 for t in ticks})


def test_stored_records_are_not_tracked_by_the_garbage_collector():
    # A log holds no object the collector must walk, however large it
    # grows: each value is an int, so no write makes a day dict tracked,
    # today's included, and no collection is needed to untrack one.
    rng = random.Random(5)
    log = ContactLog()
    for _ in range(200):
        log.observe_span(rng.randbytes(16), DistanceClass(rng.randrange(3)),
                         rng.randrange(3), rng.randrange(2880), rng.randrange(1, 60))
    log.observe_span(X, NEAR, 0, 100, 10)
    log.observe_span(X, MID, 0, 50, 10)
    log.observe_span(Y, FAR, 3, 0, 5)
    days = list(log.days.values())
    assert len(days) == 4
    assert not any(gc.is_tracked(day) for day in days)
    assert not any(gc.is_tracked(rdi) for day in days for rdi in day)
    assert not any(gc.is_tracked(value) for day in days for value in day.values())


# Spans that fill a stored value's fields to their bounds.
PACKED_FIELD_SPANS = {
    "full-day-near": [(0, 2880, NEAR)],
    "full-day-mid": [(0, 2880, MID)],
    "full-day-far": [(0, 2880, FAR)],
    "all-classes-full-day": [(1000, 1000, MID), (0, 1000, NEAR), (2000, 880, FAR)],
    "last-tick": [(2879, 1, NEAR)],
    "first-tick-2879-to-0": [(2879, 1, MID), (0, 1, FAR)],
    "first-tick-2879-to-0-full-day": [(2879, 5, FAR), (0, 2880, NEAR)],
}


def spans_log(spans, date=4):
    log = ContactLog()
    for start, n, cls in spans:
        log.observe_span(X, cls, date, start, n)
    return log


@pytest.mark.parametrize("spans", PACKED_FIELD_SPANS.values(), ids=PACKED_FIELD_SPANS)
def test_packed_fields_hold_their_bounds(spans):
    log = spans_log(spans)
    reference = per_tick_reference(spans)
    assert log.days == reference.days
    rec = log.record(4, X)
    assert rec == reference.record(4, X)
    ticks = set()
    counts = {NEAR: 0, MID: 0, FAR: 0}
    for start, n, cls in spans:
        span = set(range(start, min(start + n, 2880)))
        counts[cls] += len(span - ticks)
        ticks |= span
    assert (rec.near_ticks, rec.mid_ticks, rec.far_ticks) == (
        counts[NEAR], counts[MID], counts[FAR])
    assert rec.ticks == sum(1 << t for t in ticks)


@pytest.mark.parametrize("spans", PACKED_FIELD_SPANS.values(), ids=PACKED_FIELD_SPANS)
def test_packed_fields_survive_the_history_csv(spans):
    log = spans_log(spans)
    records = log.export_history(4, 4)
    assert records == per_tick_reference(spans).export_history(4, 4)
    text = records_to_csv(records)
    parsed = records_from_csv(text)
    assert records_to_csv(parsed) == text
    assert log_from_records(records).days == log.days
    # Each of these logs counts the lowest ticks its row allows, so the log
    # rebuilt from the CSV stores the very value the device stored.
    assert log_from_records(parsed).days == log.days


@pytest.mark.parametrize("value", [
    packed(0b110, 10, near=2),
    packed(0b11, 2879, near=2),
    packed(0b101, 2878, near=2),
    # Holes written directly: no tick mask has a hole at or past its last
    # tick.
    0b10 << 49 | 10 << 36 | 1,
    0b100 << 49 | 10 << 36 | 2,
    0,
], ids=["mask-bit-0-clear", "mask-past-tick-2879", "hole-past-tick-2879",
        "hole-at-last-tick", "hole-past-last-tick", "no-tick"])
def test_log_from_records_rejects_a_record_no_device_logs(value):
    with pytest.raises(ValueError, match="no device logs"):
        log_from_records([ContactRecord(X, 3, value)])


def test_log_from_records_accepts_a_record_from_a_log():
    log = ContactLog().observe_span(X, MID, 3, 2877, 5).observe_span(X, FAR, 3, 10, 3)
    rec = log.record(3, X)
    assert log_from_records([rec]).days == log.days == {3: {X: rec.record}}


def test_log_from_records_accepts_a_marked_record():
    log = ContactLog().observe_span(X, MID, 3, 2877, 5).observe_span(X, FAR, 3, 10, 3)
    log.mark_acted([log.record(3, X)])
    rec = log.record(3, X)
    assert rec.acted and rec.record == packed(
        0b111 << 2877 - 10 | 0b111, 10, mid=3, far=3, acted=1)
    assert log_from_records([rec]).days == log.days == {3: {X: rec.record}}


def test_mark_acted_returns_the_records_not_yet_marked():
    log = ContactLog().observe_span(X, NEAR, 3, 10, 5).observe_span(Y, FAR, 3, 40, 2)
    x, y = log.record(3, X), log.record(3, Y)
    assert not x.acted and not y.acted
    assert log.mark_acted([x]) == [x]
    assert log.record(3, X).acted and not log.record(3, Y).acted
    # A record already marked, or given twice, is reported once.
    assert log.mark_acted([x, y, y]) == [y]
    assert log.mark_acted([x, y]) == []
    assert log.record(3, X).record == x.record | packed(0, 0, acted=1)


MARKED_FOLDS = {
    "same-first-tick": [(100, 20, NEAR), (110, 20, MID)],
    "earlier-first-tick": [(110, 20, MID), (100, 20, NEAR)],
    "first-tick-2879-to-0": [(2879, 1, MID), (0, 2880, FAR)],
    "nothing-new": [(0, 2880, MID), (0, 2880, NEAR)],
}


@pytest.mark.parametrize("spans", MARKED_FOLDS.values(), ids=MARKED_FOLDS)
def test_a_fold_keeps_the_acted_bit(spans):
    # The record is marked after its first span; a fold on its key keeps
    # the bit, and counts and ticks as an unmarked log does.
    (start, n, cls), rest = spans[0], spans[1:]
    marked = ContactLog().observe_span(X, cls, 4, start, n)
    marked.mark_acted([marked.record(4, X)])
    for start, n, cls in rest:
        marked.observe_span(X, cls, 4, start, n)
    plain = spans_log(spans)
    got, want = marked.record(4, X), plain.record(4, X)
    assert got.acted and not want.acted
    assert got.record == want.record | packed(0, 0, acted=1)
    for prop in ("near_ticks", "mid_ticks", "far_ticks", "first_tick",
                 "last_tick", "ticks", "bucket_count"):
        assert getattr(got, prop) == getattr(want, prop)


def test_history_csv_does_not_carry_the_acted_bit():
    records = seeded_history()
    log = log_from_records(records)
    assert log.mark_acted(records[::3]) == records[::3]
    marked = log.export_history(0, 20)
    assert [rec.acted for rec in marked] == [i % 3 == 0 for i in range(len(records))]
    assert records_to_csv(marked) == records_to_csv(records)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2879),
            st.sampled_from([NEAR, MID, FAR]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_observe_monotone_and_bucket_consistent(observations):
    log = ContactLog()
    prev_total = 0
    prev_buckets = 0
    for tick, cls in observations:
        log.observe([(X, cls)], 0, tick)
        rec = log.record(0, X)
        assert rec.total_ticks >= prev_total
        assert rec.bucket_count >= prev_buckets
        prev_total = rec.total_ticks
        prev_buckets = rec.bucket_count
        assert 1 <= rec.bucket_count <= rec.total_ticks <= 4 * rec.bucket_count
        assert rec.first_tick <= rec.last_tick


def test_history_csv_round_trip():
    log = ContactLog()
    log.observe([(X, NEAR)], date=3, tick=40)
    log.observe([(X, NEAR)], date=3, tick=41)
    log.observe([(Y, FAR)], date=4, tick=100)
    # 10 ticks in 3 buckets: the bucket count survives the round trip.
    log.observe_span(Y, MID, 5, 10, 2)
    log.observe_span(Y, MID, 5, 20, 4)
    log.observe_span(Y, NEAR, 5, 300, 4)
    records = log.export_history(0, 10)
    text = records_to_csv(records)
    parsed = records_from_csv(text)
    assert [(r.date, r.rdi, r.near_ticks, r.mid_ticks, r.far_ticks,
             r.bucket_count) for r in parsed] == [
        (3, X, 2, 0, 0, 1),
        (4, Y, 0, 0, 1, 1),
        (5, Y, 4, 6, 0, 3),
    ]
    assert records_to_csv(parsed) == text
    rebuilt = log_from_records(parsed)
    assert set(rebuilt.records) == {(3, X), (4, Y), (5, Y)}


def seeded_history(seed=25, n_spans=2600):
    """About 2,000 records a device exports after logging random spans
    over 21 days: a pool of 200 rdis, so about a quarter of the spans fold
    into a record the log already holds."""
    rng = random.Random(seed)
    rdis = [rng.randbytes(16) for _ in range(200)]
    log = ContactLog()
    for _ in range(n_spans):
        log.observe_span(rng.choice(rdis), DistanceClass(rng.randrange(3)),
                         rng.randrange(21), rng.randrange(2880),
                         1 + int(rng.expovariate(1 / 60)))
    return log.export_history(0, 20)


def reference_lowest_mask(counts, first, last, bucket_count):
    """`_lowest_mask` one tick at a time: the remaining ticks are taken
    lowest first, one loop step each."""
    if not first <= last < 2880:
        return None
    lo, hi = first // 4, last // 4
    further = bucket_count - len({lo, hi})
    if not 0 <= further <= max(0, hi - lo - 1):
        return None
    mask = 1 << first | 1 << last
    claimed = 0b1111 << lo * 4 | 0b1111 << hi * 4
    for b in range(lo + 1, lo + 1 + further):
        mask |= 1 << b * 4
        claimed |= 0b1111 << b * 4
    free = claimed & ((1 << last + 1) - (1 << first)) & ~mask
    need = sum(counts) - mask.bit_count()
    if not 0 <= need <= free.bit_count():
        return None
    for _ in range(need):
        low = free & -free
        mask |= low
        free ^= low
    return mask


def test_lowest_mask_equals_the_tick_at_a_time_reference():
    rng = random.Random(14)
    found = 0
    for _ in range(5000):
        first = rng.randrange(2880)
        last = rng.randrange(first, min(2880, first + rng.choice([4, 40, 400, 2880])))
        buckets = rng.randrange(last // 4 - first // 4 + 3)
        counts = (rng.randrange(4 * buckets + 3), rng.randrange(3), 0)
        mask = _lowest_mask(counts, first, last, buckets)
        assert mask == reference_lowest_mask(counts, first, last, buckets)
        found += mask is not None
    # Both the rows a device logs and those it does not are compared.
    assert 1000 < found < 4000
    for rec in seeded_history():
        row = ((rec.near_ticks, rec.mid_ticks, rec.far_ticks), rec.first_tick,
               rec.last_tick, rec.bucket_count)
        assert _lowest_mask(*row) == reference_lowest_mask(*row)


def test_history_csv_bytes_are_pinned():
    records = seeded_history()
    text = records_to_csv(records)
    assert len(records) == 1904
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8df312b0e00419b678ff90aeb5f9a7fd1864b4aebe8f037f47ae4fc6ecfb4436")
    assert records_to_csv(records_from_csv(text)) == text


NO_DEVICE_LOGS = "no device logs"


def history_row(counts_and_ticks, rdi_hex=X.hex(), date="3"):
    return f"{date},{rdi_hex},{counts_and_ticks}"


def writes(counts_and_ticks, date="3"):
    """The start of the message for a row `records_to_csv` writes back as
    this one."""
    return f"records_to_csv writes '{history_row(counts_and_ticks, date=date)}', got"


@pytest.mark.parametrize("row,detail", [
    pytest.param(history_row("-1,2,0,40,41,1"), "near_ticks must be",
                 id="negative-count"),
    pytest.param(history_row("-5,0,0,900,3,1"), "near_ticks must be",
                 id="negative-count-reversed-ticks"),
    pytest.param(history_row("0,0,0,-1,-1,0"), "first_tick must be", id="no-ticks"),
    *(pytest.param(history_row(counts_and_ticks), NO_DEVICE_LOGS, id=name)
      for name, counts_and_ticks in [
          ("tick-past-day", "1,0,0,2880,2880,1"),
          ("first-after-last", "2,0,0,41,40,1"),
          ("ticks-exceed-span", "5,0,0,40,43,1"),
          ("ticks-exceed-buckets", "10,0,0,40,48,3"),
          ("buckets-exceed-ticks", "2,0,0,40,48,3"),
          ("buckets-below-first-and-last", "4,0,0,40,48,1"),
          ("buckets-exceed-span", "3,0,0,40,41,2"),
      ]),
    # bytes.fromhex skips this whitespace; a device writes 32 bare digits.
    pytest.param(history_row("1,0,0,40,40,1", rdi_hex=" ".join(["ab"] * 16)),
                 "rdi must be 32 hex digits", id="rdi-with-spaces"),
    # int() takes each of these, and the row would be written back changed.
    pytest.param(history_row("10,0,0,40,49,3", date=" +3"), writes("10,0,0,40,49,3"),
                 id="signed-date"),
    pytest.param(history_row("1_0,0,0,40,49,3"), writes("10,0,0,40,49,3"),
                 id="underscore-count"),
    pytest.param(history_row("10,0,0,4_0,49,3"), writes("10,0,0,40,49,3"),
                 id="underscore-tick"),
    pytest.param(history_row("1,0,0,40,40,1", date="\uff13"), writes("1,0,0,40,40,1"),
                 id="full-width-date"),
    pytest.param(history_row("1,0,0,040,40,1"), writes("1,0,0,40,40,1"),
                 id="leading-zero-tick"),
    pytest.param(history_row("1,0,0,40,40,01"), writes("1,0,0,40,40,1"),
                 id="leading-zero-buckets"),
    pytest.param(history_row("1,0,0,40,40,1", date="-0"),
                 writes("1,0,0,40,40,1", date="0"), id="negative-zero-date"),
])
def test_history_csv_rejects_row_no_device_writes(row, detail):
    text = f"{HISTORY_CSV_HEADER}\n{row}\n"
    with pytest.raises(MalformedHistory, match=f"^line 2: {detail}"):
        records_from_csv(text)


@pytest.mark.parametrize("text", [
    "not,a,header\n1,2,3\n",
    f"{HISTORY_CSV_HEADER}\r{history_row('1,0,0,40,40,1')}\r",
    f"{HISTORY_CSV_HEADER}\r\n{history_row('1,0,0,40,40,1')}\r\n",
    "",
], ids=["wrong-header", "cr-only", "crlf", "empty"])
def test_history_csv_rejects_bad_header(text):
    with pytest.raises(MalformedHistory, match="^line 1: bad header"):
        records_from_csv(text)
