import gc
import random

import pytest
from hypothesis import example, given, strategies as st

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
from tracenet.contact_log import (
    TICKS_PER_DAY,
    Category,
    ContactLog,
    classify,
    classify_face_ticks,
)
from tracenet.ident import DistanceClass


def logged_record(date, rdi, near, mid, far, first=0):
    """The record a device logs after seeing `rdi` near, then mid, then
    far, in one run of ticks from `first`."""
    log = ContactLog()
    start = first
    for cls, n in zip(DistanceClass, (near, mid, far)):
        log.observe_span(rdi, cls, date, start, n)
        start += n
    return log.record(date, rdi)


def make_hit(date=3, rdi=bytes([7]) * 16, near=40, mid=0, far=0):
    return logged_record(date, rdi, near, mid, far)


def open_case(summary=None, rng=None):
    rng = rng or random.Random(0)
    case = CaseRecord(token=rng.randbytes(16))
    msg = MailboxMessage(case.token, MessageKind.OPEN_INQUIRY,
                         summary or hit_summary(make_hit()))
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
    # The carrier-day and three tick counts, nothing else: no identifier
    # that links the inquiry to a published carrier-day.
    assert msg.body == {"date": 3, "near_ticks": 40, "mid_ticks": 0,
                        "far_ticks": 0}


@st.composite
def logged_hits(draw):
    """A hit on a record a log holds: 1 to 2880 counted ticks in one run."""
    near, mid = draw(st.integers(0, 960)), draw(st.integers(0, 960))
    far = draw(st.integers(0 if near + mid else 1, 960))
    first = draw(st.integers(0, TICKS_PER_DAY - (near + mid + far)))
    rdi, date = draw(st.binary(min_size=16, max_size=16)), draw(st.integers(0, 2**32 - 1))
    return logged_record(date, rdi, near, mid, far, first)


@given(logged_hits())
def test_inquiry_body_carries_the_hit_record_counts(hit):
    assert hit_summary(hit) == {
        "date": hit.date, "near_ticks": hit.near_ticks,
        "mid_ticks": hit.mid_ticks, "far_ticks": hit.far_ticks,
    }
    _, (msg,) = on_hits([hit], "negotiate", random.Random(0))
    assert msg.body == hit_summary(hit)


@pytest.mark.parametrize("face_ticks,category", [
    (0, Category.UNCRITICAL), (1, Category.CATEGORY2), (30, Category.CATEGORY2),
    (31, Category.CATEGORY1), (TICKS_PER_DAY, Category.CATEGORY1),
])
def test_face_tick_threshold(face_ticks, category):
    # 30 ticks are exactly 15 minutes: category 1 needs strictly more.
    assert classify_face_ticks(face_ticks) == category


@example(15, 15, 0)
@example(16, 15, 2849)
@example(0, 0, TICKS_PER_DAY)
@given(st.integers(0, TICKS_PER_DAY), st.integers(0, TICKS_PER_DAY),
       st.integers(0, TICKS_PER_DAY))
def test_counts_and_records_classify_the_same(near, mid, far):
    category = classify_face_ticks(near + mid)
    # No record of one day holds more ticks than the day has.
    if 0 < near + mid + far <= TICKS_PER_DAY:
        assert classify(logged_record(0, bytes(16), near, mid, far)) == category
    # The authority's decision on the same counts; a summary of more ticks
    # than a day has is refused.
    case = CaseRecord(token=bytes(16), state=CaseState.INQUIRY_OPEN)
    _, msgs = categorize(case, {"date": 0, "near_ticks": near, "mid_ticks": mid,
                                "far_ticks": far})
    if near + mid + far > TICKS_PER_DAY:
        assert msgs == [] and case.state == CaseState.INQUIRY_OPEN
    elif category == Category.UNCRITICAL:
        assert case.state == CaseState.DROPPED
    else:
        assert case.category == category


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


@pytest.mark.parametrize("summary", [
    {"near_ticks": "40"},
    {"near_ticks": 40.9},
    {"near_ticks": True},
    {"near_ticks": -40, "mid_ticks": 50},
    {"near_ticks": 10**6},
], ids=["text", "float", "bool", "negative", "past-one-day"])
def test_categorize_audits_a_summary_open_inquiry_would_refuse(summary):
    # The same check as step(OPEN_INQUIRY): the inquiry stays open, no test
    # is ordered, and the refusal is audited.
    case = open_case()
    case, msgs = categorize(case, summary)
    assert msgs == []
    assert case.state == CaseState.INQUIRY_OPEN
    assert case.category is None
    assert case.audit == ("categorize in inquiry_open: not a hit summary",)


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
    summary = hit_summary(make_hit())
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


@pytest.mark.parametrize("date", ["x", None, [5], 1e309, 7.9, "12", True])
def test_step_bad_test_result_date_is_audited_noop(date):
    # Only an int is a date: a float, a numeric string or a bool is not read
    # as one.
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


ONE_OF_EACH_KIND = {
    MessageKind.OPEN_INQUIRY: {"date": 3, "near_ticks": 40, "mid_ticks": 2,
                               "far_ticks": 7},
    MessageKind.CATEGORIZATION_EVIDENCE: {"reassess": "far"},
    MessageKind.CATEGORY_DECISION: {"category": "uncritical"},
    MessageKind.TEST_ORDER: {"category": "category2"},
    MessageKind.TEST_RESULT: {"result": "positive", "date": 9},
    MessageKind.HISTORY_REQUEST: {"from_date": -2},
    MessageKind.HISTORY_UPLOAD: {},
    MessageKind.RELEASE: {},
    MessageKind.DROP: {},
}


def test_message_serialization_round_trip():
    rng = random.Random(5)
    offset = 0
    messages = [
        MailboxMessage(rng.randbytes(16), kind, ONE_OF_EACH_KIND[kind])
        for kind in MessageKind
    ]
    blob = b"".join(serialize_message(m) for m in messages)
    out = []
    while offset < len(blob):
        msg, offset = deserialize_message(blob, offset)
        out.append(msg)
    assert out == messages


@pytest.mark.parametrize("kind,body", [
    (MessageKind.OPEN_INQUIRY, {"date": 3, "near_ticks": 40, "mid_ticks": 0}),
    (MessageKind.OPEN_INQUIRY, {"date": 3, "near_ticks": 40, "mid_ticks": 0,
                                "far_ticks": 0, "rdi": "00" * 16}),
    (MessageKind.OPEN_INQUIRY, {"date": -1, "near_ticks": 0, "mid_ticks": 0,
                                "far_ticks": 0}),
    (MessageKind.OPEN_INQUIRY, {"date": 3, "near_ticks": 2**16, "mid_ticks": 0,
                                "far_ticks": 0}),
    (MessageKind.OPEN_INQUIRY, {"date": 3.0, "near_ticks": 0, "mid_ticks": 0,
                                "far_ticks": 0}),
    (MessageKind.OPEN_INQUIRY, {"date": True, "near_ticks": 0, "mid_ticks": 0,
                                "far_ticks": 0}),
    (MessageKind.TEST_RESULT, {"result": "inconclusive", "date": 3}),
    (MessageKind.TEST_RESULT, {"result": ["positive"], "date": 3}),
    (MessageKind.TEST_RESULT, {"result": "positive", "date": "x"}),
    (MessageKind.TEST_ORDER, {"category": "uncritical"}),
    (MessageKind.CATEGORY_DECISION, {"category": "category9"}),
    (MessageKind.CATEGORY_DECISION, "category1"),
    (MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": "mid"}),
    (MessageKind.HISTORY_REQUEST, {"from_date": 2**31}),
    (MessageKind.DROP, {"reason": "none"}),
    (MessageKind.RELEASE, {"x": "y" * 70_000}),
    (MessageKind.OPEN_INQUIRY, ["date", 3]),
], ids=repr)
def test_serialize_rejects_body_that_does_not_fit(kind, body):
    with pytest.raises(ValueError):
        serialize_message(MailboxMessage(bytes(16), kind, body))


@pytest.mark.parametrize("token", [bytes(15), bytes(17), bytearray(16), "0" * 16])
def test_serialize_rejects_token_that_is_not_16_bytes(token):
    with pytest.raises(ValueError):
        serialize_message(MailboxMessage(token, MessageKind.DROP, {}))


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
