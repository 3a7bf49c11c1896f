import random

import pytest
from hypothesis import given, settings, strategies as st

from tracenet.authority import SignedCarrierList
from tracenet.contact_log import ContactLog, ContactRecord
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
    assert (0, X) not in index
    assert match_contacts(make_log([(0, X)]), index) == []


def test_both_date_and_identifier_must_match():
    index = build_index(make_list([(5, X)]), verified=True)
    assert (5, X) in index
    assert (6, X) not in index
    assert (5, Y) not in index


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
