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
    # A log holds no object the collector must walk on each pass, however
    # large it grows.
    rng = random.Random(5)
    log = ContactLog()
    for _ in range(200):
        log.observe_span(rng.randbytes(16), DistanceClass(rng.randrange(3)),
                         rng.randrange(3), rng.randrange(2880), rng.randrange(1, 60))
    log.observe_span(X, NEAR, 0, 100, 10)
    log.observe_span(X, MID, 0, 50, 10)
    gc.collect()
    assert not any(gc.is_tracked(key) for key in log.records)
    assert not any(gc.is_tracked(value) for value in log.records.values())


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


@pytest.mark.parametrize("rdi_hex,counts_and_ticks,detail", [
    *((X.hex(), counts_and_ticks, NO_DEVICE_LOGS) for counts_and_ticks in [
        "-1,2,0,40,41,1",
        "-5,0,0,900,3,1",
        "0,0,0,-1,-1,0",
        "1,0,0,2880,2880,1",
        "2,0,0,41,40,1",
        "5,0,0,40,43,1",
        "10,0,0,40,48,3",
        "2,0,0,40,48,3",
        "4,0,0,40,48,1",
        "3,0,0,40,41,2",
    ]),
    # bytes.fromhex skips this whitespace; a device writes 32 bare digits.
    (" ".join(["ab"] * 16), "1,0,0,40,40,1", "rdi must be 32 hex digits"),
], ids=["negative-count", "negative-count-reversed-ticks", "no-ticks",
        "tick-past-day", "first-after-last", "ticks-exceed-span",
        "ticks-exceed-buckets", "buckets-exceed-ticks",
        "buckets-below-first-and-last", "buckets-exceed-span",
        "rdi-with-spaces"])
def test_history_csv_rejects_row_no_device_writes(rdi_hex, counts_and_ticks,
                                                  detail):
    text = f"{HISTORY_CSV_HEADER}\n3,{rdi_hex},{counts_and_ticks}\n"
    with pytest.raises(MalformedHistory, match=f"^line 2: {detail}"):
        records_from_csv(text)


def test_history_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        records_from_csv("not,a,header\n1,2,3\n")
