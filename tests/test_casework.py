import gc
import random

import pytest

from tracenet.casework import (
    CaseRecord,
    CaseState,
    MailboxMessage,
    MessageKind,
    NoHits,
    WrongState,
    categorize,
    deserialize_message,
    hit_summary,
    on_hits,
    serialize_message,
    step,
)
from tracenet.contact_log import Category, ContactRecord, log_from_records
from tracenet.matching import Hit


def make_hit(date=3, rdi=bytes([7]) * 16, near=40, mid=0, far=0):
    rec = ContactRecord(foreign_rdi=rdi, date=date, near_ticks=near,
                        mid_ticks=mid, far_ticks=far,
                        ticks=(1 << near + mid + far) - 1)
    log = log_from_records([rec])
    return Hit(rdi=rdi, date=date, record=log.records[date, rdi])


def open_case(summary=None, rng=None):
    rng = rng or random.Random(0)
    case = CaseRecord(token=rng.randbytes(16))
    msg = MailboxMessage(case.token, MessageKind.OPEN_INQUIRY,
                         summary or hit_summary(make_hit().contact_record()))
    case, _ = step(case, msg, today=0)
    assert case.state == CaseState.INQUIRY_OPEN
    return case


def test_on_hits_requires_hits():
    with pytest.raises(NoHits):
        on_hits([], "negotiate", random.Random(0))


def test_silent_quarantine_sends_nothing():
    state, messages = on_hits([make_hit()], "quarantine_silently", random.Random(0))
    assert state == CaseState.SELF_QUARANTINED
    assert messages == []


def test_negotiate_opens_minimal_inquiry():
    state, messages = on_hits([make_hit()], "negotiate", random.Random(0))
    assert state == CaseState.INQUIRY_OPEN
    assert len(messages) == 1
    msg = messages[0]
    assert msg.kind == MessageKind.OPEN_INQUIRY
    assert set(msg.body) == {
        "date", "rdi", "duration_minutes", "near_ticks", "mid_ticks", "far_ticks"
    }


def test_one_inquiry_per_distinct_carrier_day():
    hits = [
        make_hit(date=1, rdi=bytes([1]) * 16),
        make_hit(date=2, rdi=bytes([1]) * 16),
        make_hit(date=2, rdi=bytes([2]) * 16),
        make_hit(date=2, rdi=bytes([2]) * 16),  # duplicate carrier-day
    ]
    _, messages = on_hits(hits, "negotiate", random.Random(0))
    assert len(messages) == 3
    assert len({m.token for m in messages}) == 3


def test_tokens_unique_and_unlinked():
    rng = random.Random(1)
    tokens = set()
    for _ in range(10_000):
        _, msgs = on_hits([make_hit()], "negotiate", rng)
        tokens.add(msgs[0].token)
    assert len(tokens) == 10_000


def test_categorize_long_near_contact_is_category1():
    case = open_case()
    case, msgs = categorize(case, {"near_ticks": 40, "mid_ticks": 0, "far_ticks": 0})
    assert case.state == CaseState.AWAITING_TEST1
    assert case.category == Category.CATEGORY1
    assert [m.kind for m in msgs] == [MessageKind.TEST_ORDER]


def test_categorize_short_near_contact_is_category2():
    case = open_case()
    case, msgs = categorize(case, {"near_ticks": 20, "mid_ticks": 0, "far_ticks": 0})
    assert case.category == Category.CATEGORY2
    assert case.state == CaseState.AWAITING_TEST1


def test_categorize_far_only_drops_and_erases():
    case = open_case()
    case, msgs = categorize(case, {"near_ticks": 0, "mid_ticks": 0, "far_ticks": 120})
    assert case.state == CaseState.DROPPED
    assert [m.kind for m in msgs] == [MessageKind.DROP]
    assert case.summary is None and case.evidence == ()


def test_categorize_untraced_category_drops():
    case = open_case()
    case, msgs = categorize(
        case, {"near_ticks": 20, "mid_ticks": 0, "far_ticks": 0},
        traced_categories=frozenset({Category.CATEGORY1}),
    )
    assert case.state == CaseState.DROPPED


def test_evidence_can_downgrade_distance():
    case = open_case()
    case, _ = step(case, MailboxMessage(case.token,
                                        MessageKind.CATEGORIZATION_EVIDENCE,
                                        {"reassess": "far"}), today=0)
    case, msgs = categorize(case, {"near_ticks": 40, "mid_ticks": 0, "far_ticks": 0})
    assert case.state == CaseState.DROPPED


def test_categorize_wrong_state_raises():
    case = CaseRecord(token=bytes(16))
    with pytest.raises(WrongState):
        categorize(case, {"near_ticks": 1})


def send_result(case, result, date):
    return step(case, MailboxMessage(case.token, MessageKind.TEST_RESULT,
                                     {"result": result, "date": date}))


def test_positive_result_makes_carrier_and_requests_history():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    case, msgs = send_result(case, "positive", date=7)
    assert case.state == CaseState.CARRIER
    assert case.resolution_epoch == 7
    assert [m.kind for m in msgs] == [MessageKind.HISTORY_REQUEST]
    assert msgs[0].body["from_date"] == 7 - case.lookback_days


def test_two_spaced_negatives_release():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    case, msgs = send_result(case, "negative", date=7)
    assert case.state == CaseState.AWAITING_TEST2
    assert msgs == []
    case, msgs = send_result(case, "negative", date=12)
    assert case.state == CaseState.RELEASED
    assert [m.kind for m in msgs] == [MessageKind.RELEASE]
    assert len(case.test_results) == 2


def test_premature_retest_is_audited_noop():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    send_result(case, "negative", date=7)
    case, msgs = send_result(case, "negative", date=9)
    assert case.state == CaseState.AWAITING_TEST2
    assert msgs == []
    assert case.test_results == (("negative", 7),)
    assert len(case.audit) == 1


def test_stored_cases_add_at_most_two_tracked_objects_each():
    # A decided case keeps no inquiry payload and no list, so a stored case
    # awaiting its retest leaves little more than its own record for the
    # garbage collector to traverse.
    rng = random.Random(2)
    summary = hit_summary(make_hit().contact_record())
    cases = {}
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(2_000):
        case = CaseRecord(token=rng.randbytes(16))
        step(case, MailboxMessage(case.token, MessageKind.OPEN_INQUIRY, summary),
             today=0)
        categorize(case, case.summary, today=0)
        send_result(case, "negative", date=7)
        cases[case.token] = case
    gc.collect()
    added = len(gc.get_objects()) - before
    assert all(c.state == CaseState.AWAITING_TEST2 for c in cases.values())
    assert added <= 2 * len(cases), f"{added / len(cases):.2f} per case"


def test_retest_exactly_at_incubation_boundary_releases():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    send_result(case, "negative", date=7)
    case, _ = send_result(case, "negative", date=7 + case.incubation_days)
    assert case.state == CaseState.RELEASED


def test_result_in_wrong_state_is_audited_noop():
    case = open_case()
    case, msgs = send_result(case, "negative", date=1)
    assert case.state == CaseState.INQUIRY_OPEN
    assert msgs == []
    assert case.test_results == ()
    assert len(case.audit) == 1


def test_unknown_result_is_audited_noop():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    case, msgs = send_result(case, "inconclusive", date=7)
    assert case.state == CaseState.AWAITING_TEST1
    assert msgs == []
    assert case.test_results == ()
    assert case.audit == ("TEST_RESULT in awaiting_test1: unknown test result "
                          "'inconclusive'",)


def test_step_illegal_pair_is_audited_noop():
    case = CaseRecord(token=bytes(16))
    before = case.state
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.TEST_ORDER, {}))
    assert case.state == before
    assert msgs == []
    assert len(case.audit) == 1


@pytest.mark.parametrize("body", [{"category": "category9"}, {}])
def test_step_bad_category_decision_is_audited_noop(body):
    case = open_case()
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.CATEGORY_DECISION,
                                           body))
    assert case.state == CaseState.INQUIRY_OPEN
    assert msgs == []
    assert len(case.audit) == 1


@pytest.mark.parametrize("body", [
    {"near_ticks": "abc"},
    {"date": "x"},
    {"date": True},
    {"near_ticks": [1]},
    {"mid_ticks": float("inf")},
    {"near_ticks": 4.0},
    {"near_ticks": -100},
    {"near_ticks": 10**9},
    {"near_ticks": 2000, "far_ticks": 881},
    {"near_ticks": True},
], ids=repr)
def test_step_open_inquiry_rejects_what_is_not_a_hit_summary(body):
    # Tick counts must be non-negative ints that fit in one day and the date
    # an int, or the authority would fail, or order a test, on garbage.
    case = CaseRecord(token=bytes(16))
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.OPEN_INQUIRY,
                                           body), today=0)
    assert case.state == CaseState.IDLE
    assert case.summary is None
    assert msgs == []
    assert case.audit == ("OPEN_INQUIRY in idle: not a hit summary",)


@pytest.mark.parametrize("kind", list(MessageKind))
@pytest.mark.parametrize("body", [["date", 3], "text", 7, None])
def test_step_non_object_body_is_audited_noop(kind, body):
    case = open_case()
    case, msgs = step(case, MailboxMessage(case.token, kind, body), today=1)
    assert case.state == CaseState.INQUIRY_OPEN
    assert msgs == []
    assert len(case.audit) == 1


@pytest.mark.parametrize("date", ["x", None, [5], 1e309])
def test_step_bad_test_result_date_is_audited_noop(date):
    case = open_case()
    categorize(case, {"near_ticks": 40})
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.TEST_RESULT,
                                           {"result": "positive", "date": date}))
    assert case.state == CaseState.AWAITING_TEST1
    assert msgs == []
    assert case.test_results == ()
    assert len(case.audit) == 1


def test_deserialize_rejects_deeply_nested_body():
    body = b"[" * 60_000
    blob = (len(body) + 17).to_bytes(2, "big") + bytes(16) + bytes([1]) + body
    with pytest.raises(ValueError):
        deserialize_message(blob)


@pytest.mark.parametrize("category,kind,state", [
    ("category2", MessageKind.TEST_ORDER, CaseState.AWAITING_TEST1),
    ("uncritical", MessageKind.DROP, CaseState.DROPPED),
])
def test_step_category_decision_matches_categorize(category, kind, state):
    case = open_case()
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.CATEGORY_DECISION,
                                           {"category": category}), today=4)
    assert [m.kind for m in msgs] == [kind]
    assert case.state == state


def test_step_replayed_test_result_is_noop():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    msg = MailboxMessage(case.token, MessageKind.TEST_RESULT,
                         {"result": "negative", "date": 7})
    case, _ = step(case, msg)
    assert case.state == CaseState.AWAITING_TEST2
    case, msgs = step(case, msg)
    assert case.state == CaseState.AWAITING_TEST2
    assert msgs == []
    assert len(case.test_results) == 1


def test_step_drop_from_open_inquiry():
    case = open_case()
    case, _ = step(case, MailboxMessage(case.token, MessageKind.DROP, {}), today=2)
    assert case.state == CaseState.DROPPED
    assert case.resolution_epoch == 2


def test_step_premature_retest_is_audited_noop():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    step(case, MailboxMessage(case.token, MessageKind.TEST_RESULT,
                              {"result": "negative", "date": 7}))
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.TEST_RESULT,
                                           {"result": "negative", "date": 8}))
    assert case.state == CaseState.AWAITING_TEST2
    assert msgs == []


def test_message_serialization_round_trip():
    rng = random.Random(5)
    offset = 0
    messages = [
        MailboxMessage(rng.randbytes(16), kind, {"n": i})
        for i, kind in enumerate(MessageKind)
    ]
    blob = b"".join(serialize_message(m) for m in messages)
    out = []
    while offset < len(blob):
        msg, offset = deserialize_message(blob, offset)
        out.append(msg)
    assert out == messages


def test_message_deserialize_rejects_truncation():
    blob = serialize_message(MailboxMessage(bytes(16), MessageKind.DROP, {}))
    with pytest.raises(ValueError):
        deserialize_message(blob[:-1])


def test_messages_carry_no_identity():
    state, msgs = on_hits([make_hit()], "negotiate", random.Random(0))
    for msg in msgs:
        assert "agent" not in msg.body
        assert "identity" not in msg.body
        assert "name" not in msg.body
