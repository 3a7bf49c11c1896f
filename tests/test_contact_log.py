import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from tracenet.contact_log import (
    HISTORY_CSV_HEADER,
    Category,
    ContactLog,
    ContactRecord,
    EmptyRange,
    MalformedHistory,
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
    assert rec.buckets == {0}
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
    assert log.record(0, X).buckets == {719}


def test_tick_out_of_range_rejected():
    with pytest.raises(ValueError):
        ContactLog().observe([(X, NEAR)], date=0, tick=2880)


def test_six_neighbors_twelve_hours_storage_bound():
    # 6 devices seen every 30-s tick for 12 hours: 360 two-minute buckets
    # each, 2160 bucket-entries in total.
    log = ContactLog()
    rdis = [bytes([i]) * 16 for i in range(6)]
    for tick in range(1440):
        log.observe([(rdi, NEAR) for rdi in rdis], date=0, tick=tick)
    assert len(log.records) == 6
    for rdi in rdis:
        assert len(log.record(0, rdi).buckets) == 360
    assert sum(len(log.record(*key).buckets) for key in log.records) == 2160


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
    rec = ContactRecord(foreign_rdi=X, date=0, near_ticks=near,
                        mid_ticks=mid, far_ticks=far)
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


def test_export_history_filters_and_sorts():
    log = ContactLog()
    log.observe([(X, NEAR)], date=5, tick=10)
    log.observe([(Y, NEAR)], date=6, tick=3)
    log.observe([(X, NEAR)], date=7, tick=1)
    out = log.export_history(6, 7)
    assert [(r.date, r.foreign_rdi) for r in out] == [(6, Y), (7, X)]
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
    assert a.buckets == b.buckets
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
    (0, 1), (100, 37), (0, 2880), (2879, 1),
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
    assert rec.buckets == {t // 4 for t in ticks}
    assert (rec.first_tick, rec.last_tick) == (min(ticks), max(ticks))


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


@pytest.mark.parametrize("change", [
    {"near_ticks": 4096, "ticks": (1 << 4096) - 1},
    {"near_ticks": 3, "ticks": 0b11},
    {"near_ticks": -1, "mid_ticks": 3, "ticks": 0b11},
    {"near_ticks": 0, "ticks": 0},
], ids=["past-the-day", "counts-over-ticks", "negative-count", "no-tick"])
def test_log_from_records_rejects_a_record_no_device_logs(change):
    rec = ContactRecord(foreign_rdi=X, date=3, **change)
    with pytest.raises(ValueError, match="no device logs"):
        log_from_records([rec])


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
    prev_buckets = set()
    for tick, cls in observations:
        log.observe([(X, cls)], 0, tick)
        rec = log.record(0, X)
        assert rec.total_ticks >= prev_total
        assert rec.buckets >= prev_buckets
        prev_total = rec.total_ticks
        prev_buckets = set(rec.buckets)
        assert 1 <= len(rec.buckets) <= rec.total_ticks <= 4 * len(rec.buckets)
        assert rec.first_tick <= rec.last_tick
        assert rec.first_tick // 4 in rec.buckets
        assert rec.last_tick // 4 in rec.buckets


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
    assert [(r.date, r.foreign_rdi, r.near_ticks, r.mid_ticks, r.far_ticks,
             len(r.buckets)) for r in parsed] == [
        (3, X, 2, 0, 0, 1),
        (4, Y, 0, 0, 1, 1),
        (5, Y, 4, 6, 0, 3),
    ]
    assert records_to_csv(parsed) == text
    rebuilt = log_from_records(parsed)
    assert set(rebuilt.records) == {(3, X), (4, Y), (5, Y)}


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
