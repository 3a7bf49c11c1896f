import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tracenet.authority import SignedCarrierList
from tracenet.contact_log import TICKS_PER_DAY, ContactLog, ContactRecord
from tracenet.ident import DistanceClass
from tracenet.matching import (
    UnverifiedList,
    brute_force_match,
    build_index,
    match_contacts,
)

NEAR = DistanceClass.NEAR


def make_list(entries):
    return SignedCarrierList(epoch_date=0, entries=tuple(entries), signature=b"")


def make_log(pairs):
    log = ContactLog()
    for date, rdi in pairs:
        log.observe([(rdi, NEAR)], date, tick=0)
    return log


def hit_keys(hits):
    return {(h.date, h.rdi) for h in hits}


X = bytes([1]) * 16
Y = bytes([2]) * 16


def test_build_index_requires_verification():
    with pytest.raises(UnverifiedList):
        build_index(make_list([]), verified=False)


def test_empty_index_matches_nothing():
    index = build_index(make_list([]), verified=True)
    assert index == {}
    assert 0 not in index
    assert match_contacts(make_log([(0, X)]), index) == []


def test_both_date_and_identifier_must_match():
    index = build_index(make_list([(5, X)]), verified=True)
    assert X in index[5]
    assert 6 not in index
    assert Y not in index[5]


def test_duplicate_entries_have_set_semantics():
    index = build_index(make_list([(5, X), (5, X)]), verified=True)
    hits = match_contacts(make_log([(5, X)]), index)
    assert len(hits) == 1


def test_single_overlap_is_reported():
    log = make_log([(3, X), (4, Y)])
    lst = make_list([(3, X)])
    hits = match_contacts(log, build_index(lst, verified=True))
    assert hit_keys(hits) == {(3, X)}
    assert hit_keys(brute_force_match(log, lst)) == {(3, X)}


def test_date_mismatch_yields_no_hit_even_with_same_rdi():
    log = make_log([(3, X)])
    lst = make_list([(4, X)])
    assert match_contacts(log, build_index(lst, verified=True)) == []
    assert brute_force_match(log, lst) == []


def test_hits_sorted_by_date_then_first_tick():
    log = ContactLog()
    log.observe([(Y, NEAR)], 2, tick=100)
    log.observe([(X, NEAR)], 2, tick=5)
    log.observe([(X, NEAR)], 1, tick=500)
    lst = make_list([(1, X), (2, X), (2, Y)])
    hits = match_contacts(log, build_index(lst, verified=True))
    assert [(h.date, h.first_tick) for h in hits] == [(1, 500), (2, 5), (2, 100)]


def random_case(rng, n_log, n_list, overlap):
    pool = [rng.randbytes(16) for _ in range(max(n_log, n_list, 1))]
    log_pairs = {
        (rng.randrange(0, 30), rng.choice(pool)) for _ in range(n_log)
    }
    list_pairs = [
        (rng.randrange(0, 30), rng.choice(pool)) for _ in range(n_list)
    ]
    planted = rng.sample(sorted(log_pairs), min(overlap, len(log_pairs)))
    list_pairs.extend(planted)
    return make_log(log_pairs), make_list(list_pairs), planted


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_equivalence_randomized(seed):
    rng = random.Random(seed)
    log, lst, planted = random_case(
        rng, rng.randrange(0, 60), rng.randrange(0, 60), rng.randrange(0, 10)
    )
    fast = match_contacts(log, build_index(lst, verified=True))
    slow = brute_force_match(log, lst)
    assert fast == slow
    assert hit_keys(fast) == hit_keys(slow)
    assert [(h.date, h.rdi) for h in fast] == [(h.date, h.rdi) for h in slow]
    # Hits carry the values the log stores, not copies.
    assert all(f.record is s.record for f, s in zip(fast, slow))
    # Completeness: every planted overlap is reported.
    assert set(planted) <= hit_keys(fast)


def test_rematching_across_epochs_accumulates_hits():
    # Matching the same log against successive publications yields the
    # union of the hits available by the later epoch.
    log = make_log([(1, X), (2, Y)])
    epoch1 = make_list([(1, X)])
    epoch2 = make_list([(1, X), (2, Y)])
    hits1 = hit_keys(match_contacts(log, build_index(epoch1, verified=True)))
    hits2 = hit_keys(match_contacts(log, build_index(epoch2, verified=True)))
    assert hits1 | hits2 == {(1, X), (2, Y)}
    assert hits1 <= hits2


def test_hit_is_an_immutable_named_tuple():
    log = make_log([(5, X)])
    (hit,) = match_contacts(log, build_index(make_list([(5, X)]), verified=True))
    assert type(hit) is ContactRecord
    assert hit == ContactRecord(rdi=X, date=5, record=log.records[5, X])
    assert hit == (X, 5, log.records[5, X])
    assert hit == log.record(5, X)
    with pytest.raises(AttributeError):
        hit.date = 6


# A few dates and identifiers, so drawn lists often repeat an entry, and
# out of order they often split one date into separate runs.
LIST_DATES = st.integers(min_value=0, max_value=4)
LIST_RDIS = st.sampled_from([bytes([i]) * 16 for i in range(1, 6)])
SPANS = st.lists(st.tuples(LIST_DATES, LIST_RDIS,
                           st.integers(min_value=0, max_value=TICKS_PER_DAY - 1),
                           st.integers(min_value=1, max_value=60),
                           st.sampled_from(list(DistanceClass))), max_size=30)


@settings(max_examples=200, deadline=None)
@example([(1, X, 9, 1, NEAR), (2, Y, 5, 1, NEAR), (2, X, 7, 1, NEAR)],
         [(2, Y), (1, X), (2, X)])  # unsorted: dates 2, 1, 2
@example([(3, X, 0, 5, NEAR)], [(3, X), (3, X), (3, X)])  # a repeated entry
@example([(1, X, 4, 1, NEAR), (1, Y, 2, 1, NEAR), (2, X, 0, 1, NEAR)],
         [(1, X), (2, X), (1, Y)])  # date 1 in two separate runs
@given(SPANS, st.lists(st.tuples(LIST_DATES, LIST_RDIS), max_size=30))
def test_any_entry_order_matches_the_oracle(spans, entries):
    log = ContactLog()
    for date, rdi, start, n_ticks, cls in spans:
        log.observe_span(rdi, cls, date, start, n_ticks)
    lst = make_list(entries)
    index = build_index(lst, verified=True)
    # Each date's runs are merged into one set, however the list is ordered.
    assert index == {date: frozenset(r for d, r in entries if d == date)
                     for date, _ in entries}
    hits = match_contacts(log, index)
    assert hits == brute_force_match(log, lst)
    for hit in hits:
        assert hit.record is log.days[hit.date][hit.rdi]
