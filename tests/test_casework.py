import copy
import gc
import hashlib
import random
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tracenet import casework
from tracenet.authority import AuthorityState, generate_keypair
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

from linetrace import lines_run, missed_lines


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


def test_on_hits_rejects_an_unknown_preference():
    with pytest.raises(ValueError, match="unknown preference 'broadcast'"):
        on_hits([make_hit()], "broadcast", random.Random(0))


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
    {"near_ticks": 40, "rdi": "ab" * 16},
], ids=["text", "float", "bool", "negative", "past-one-day", "identifier"])
def test_categorize_audits_a_summary_open_inquiry_would_refuse(summary):
    # The same check as step(OPEN_INQUIRY): the inquiry stays open, no test
    # is ordered, and the refusal is audited.
    case = open_case()
    case, msgs = categorize(case, summary)
    assert msgs == []
    assert case.state == CaseState.INQUIRY_OPEN
    assert case.category is None
    assert case.audit == ("categorize in inquiry_open: not a hit summary",)


def test_categorize_audits_an_open_case_that_holds_no_summary():
    # categorize trusts the case's own summary, which only step stores; a
    # case built open by hand holds none, and is refused like any other.
    case = CaseRecord(token=bytes(16), state=CaseState.INQUIRY_OPEN)
    case, msgs = categorize(case, case.summary)
    assert msgs == [] and case.state == CaseState.INQUIRY_OPEN
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


def step_cases_step_never_builds():
    """Step, with a negative result, a case awaiting its retest that holds
    no negative: `step` never builds one, but a caller may. Returns what
    `step` returns."""
    case = CaseRecord(token=bytes(16), state=CaseState.AWAITING_TEST2)
    return send_result(case, "negative", date=9)


def test_retest_with_no_negative_on_record_is_audited_noop():
    case, msgs = step_cases_step_never_builds()
    assert msgs == []
    assert case.state == CaseState.AWAITING_TEST2
    assert case.test_results == () and case.resolution_epoch is None
    assert case.audit == ("TEST_RESULT in awaiting_test2: no first negative on record",)


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
    # The old JSON body: the carrier's identifier and a duration in minutes.
    {"date": 3, "rdi": "ab" * 16, "duration_minutes": 20.0,
     "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0},
    {"date": 3, "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0, "rdi": "ab" * 16},
    {"near_ticks": 40, "note": "x"},
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


@pytest.mark.parametrize("body", [
    {"reassess": "sideways", "rdi": "ab" * 16},
    {"reassess": "near", "rdi": "ab" * 16},
    {"reassess": "sideways"},
    {"reassess": ["far"]},
    {"reassess": np.array(["near", "far"])},
    {},
], ids=repr)
def test_step_evidence_other_than_a_reassessment_is_audited_noop(body):
    case = open_case()
    case, msgs = step(case, MailboxMessage(case.token,
                                           MessageKind.CATEGORIZATION_EVIDENCE, body))
    assert msgs == []
    assert case.state == CaseState.INQUIRY_OPEN
    assert case.evidence == ()
    assert case.audit == ("CATEGORIZATION_EVIDENCE in inquiry_open: "
                          "not a reassessment to near or far",)


def test_authority_keeps_no_identifier_an_inquiry_or_evidence_carries():
    # The codec refuses these bodies; an in-process caller's are refused by
    # step, so no identifier reaches the authority's stored state.
    rdi = "ab" * 16
    state = AuthorityState(signing_key=generate_keypair(random.Random(1))[0])
    inquiry = CaseRecord(token=bytes(16))
    step(inquiry, MailboxMessage(inquiry.token, MessageKind.OPEN_INQUIRY,
                                 {**hit_summary(make_hit()), "rdi": rdi}))
    evidence = open_case()
    step(evidence, MailboxMessage(evidence.token, MessageKind.CATEGORIZATION_EVIDENCE,
                                  {"reassess": "sideways", "rdi": rdi}))
    state.cases = {inquiry.token: inquiry, evidence.token: evidence}
    assert inquiry.summary is None and evidence.evidence == ()
    assert rdi not in state.serialize_state()


@pytest.mark.parametrize("kind,audit", [
    (5, "TEST_RESULT in idle: no test pending"),
    (99, "kind 99 in idle: unknown kind"),
    (0, "kind 0 in idle: unknown kind"),
    ("TEST_RESULT", "kind 'TEST_RESULT' in idle: unknown kind"),
])
def test_step_plain_kind_is_named_or_audited(kind, audit):
    # A plain int kind is the MessageKind it equals; any other is audited.
    case = CaseRecord(token=bytes(16))
    case, msgs = step(case, MailboxMessage(bytes(16), kind,
                                           {"result": "positive", "date": 1}))
    assert msgs == []
    assert case.state == CaseState.IDLE
    assert case.audit == (audit,)


def test_step_plain_int_kind_acts_as_its_message_kind():
    case = open_case()
    categorize(case, {"near_ticks": 40})
    case, msgs = step(case, MailboxMessage(case.token, int(MessageKind.TEST_RESULT),
                                           {"result": "positive", "date": 1}))
    assert case.state == CaseState.CARRIER
    assert [m.kind for m in msgs] == [MessageKind.HISTORY_REQUEST]


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


@pytest.mark.parametrize("category", [
    np.array(["category1"]),
    np.array([1, 2]),
    ["category1"],
    1,
    None,
], ids=repr)
def test_step_category_decision_other_than_a_member_name_is_audited_noop(category):
    # A one-element array equals the member's value, and a longer one has
    # no truth value: only a str names a member.
    case = open_case()
    case, msgs = step(case, MailboxMessage(case.token, MessageKind.CATEGORY_DECISION,
                                           {"category": category}), today=4)
    assert msgs == []
    assert (case.state, case.category) == (CaseState.INQUIRY_OPEN, None)
    assert case.audit == (f"CATEGORY_DECISION in inquiry_open: "
                          f"{category!r} is not a valid Category",)


@pytest.mark.parametrize("negatives", [0, 1], ids=["awaiting_test1", "awaiting_test2"])
def test_step_array_test_result_is_audited_noop(negatives):
    # An array compares elementwise, to an array that has no truth value,
    # so neither the duplicate screen nor the result check may compare it.
    case = open_case()
    categorize(case, {"near_ticks": 40})
    for _ in range(negatives):
        case, _ = send_result(case, "negative", date=3)
    state, results = case.state, case.test_results
    case, msgs = send_result(case, np.array([1, 2]), date=3)
    assert msgs == []
    assert (case.state, case.test_results) == (state, results)
    assert case.audit[-1] == (f"TEST_RESULT in {state.value}: "
                              "unknown test result array([1, 2])")


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
    (MessageKind.TEST_RESULT, {"result": np.array(["positive"]), "date": 3}),
    (MessageKind.TEST_RESULT, {"result": np.array(["positive", "negative"]), "date": 3}),
    (MessageKind.TEST_RESULT, {"result": np.str_("positive"), "date": 3}),
    (MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": np.array(["far"])}),
    (MessageKind.TEST_RESULT, {"result": "positive", "date": "x"}),
    (MessageKind.TEST_ORDER, {"category": "uncritical"}),
    (MessageKind.CATEGORY_DECISION, {"category": "category9"}),
    (MessageKind.CATEGORY_DECISION, "category1"),
    (MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": "mid"}),
    (MessageKind.HISTORY_REQUEST, {"from_date": 2**31}),
    (MessageKind.DROP, {"reason": "none"}),
    (MessageKind.RELEASE, {"x": "y" * 70_000}),
    (MessageKind.OPEN_INQUIRY, ["date", 3]),
    (MessageKind.TEST_RESULT, {"result": "positive", "day": 3}),
    (99, {}),
], ids=repr)
def test_serialize_rejects_body_that_does_not_fit(kind, body):
    with pytest.raises(ValueError) as info:
        serialize_message(MailboxMessage(bytes(16), kind, body))
    # The codec's own refusal, not numpy's text for an array in a test.
    assert "ambiguous" not in str(info.value)


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


def test_mailbox_message_refuses_attribute_assignment():
    msg = MailboxMessage(bytes(16), MessageKind.DROP)
    for name, value in (("token", bytes([1]) * 16), ("kind", MessageKind.RELEASE),
                        ("body", {"reason": "x"}), ("sender", "agent 7")):
        with pytest.raises(AttributeError):
            setattr(msg, name, value)
    assert msg == (bytes(16), MessageKind.DROP, {})


def test_an_inquiry_round_leaves_every_body_unchanged():
    default = MailboxMessage(bytes(16), MessageKind.DROP).body
    assert default == {} and MailboxMessage(bytes(16), MessageKind.RELEASE).body is default
    # A category-1 contact, whose case is tested positive and uploads, and a
    # far-only contact, whose case is dropped.
    hits = [make_hit(date=3, near=40),
            make_hit(date=4, rdi=bytes([8]) * 16, near=0, far=12)]
    _, messages = on_hits(hits, "negotiate", random.Random(2))
    given_bodies = [dict(msg.body) for msg in messages]
    replies = []
    for msg in messages:
        decoded, _ = deserialize_message(serialize_message(msg))
        assert decoded == msg
        case, out = step(CaseRecord(token=decoded.token), decoded, today=5)
        assert case.summary == decoded.body and case.summary is not decoded.body
        case, out = categorize(case, case.summary, today=5)
        replies += out
        if case.state == CaseState.AWAITING_TEST1:
            result = MailboxMessage(case.token, MessageKind.TEST_RESULT,
                                    {"result": "positive", "date": 6})
            case, out = step(case, result, today=6)
            replies += out
            assert result.body == {"result": "positive", "date": 6}
            case, out = step(case, MailboxMessage(case.token, MessageKind.HISTORY_UPLOAD),
                             today=6)
            assert case.audit == ("history uploaded",) and out == []
        assert decoded.body == msg.body
    assert [msg.body for msg in messages] == given_bodies
    assert [m.kind for m in replies] == [MessageKind.TEST_ORDER,
                                         MessageKind.HISTORY_REQUEST, MessageKind.DROP]
    # Each reply has a body of its own, not the shared default.
    assert all(reply.body is not default for reply in replies)
    assert default == {}


@pytest.mark.parametrize("body", [
    None,
    (("category", "category1"),),
    [("category", "category1")],
    MappingProxyType({"category": "category1"}),
    OrderedDict(category="category1"),
], ids=repr)
def test_serialize_refuses_a_body_that_is_not_a_dict(body):
    with pytest.raises(ValueError, match="body must have fields"):
        serialize_message(MailboxMessage(bytes(16), MessageKind.CATEGORY_DECISION, body))
    assert serialize_message(MailboxMessage(bytes(16), MessageKind.CATEGORY_DECISION,
                                            {"category": "category1"}))


# --- transcript pin: every reachable case against every message ------------

PIN_SUMMARY = {"date": 3, "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0}


def pin_alphabet(token):
    """Criterion 8's message alphabet, then one malformed message for each
    refusal `step` makes on a message's kind or body."""
    messages = [
        MailboxMessage(token, MessageKind.OPEN_INQUIRY, PIN_SUMMARY),
        MailboxMessage(token, MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": "near"}),
        MailboxMessage(token, MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": "far"}),
        MailboxMessage(token, MessageKind.TEST_ORDER, {}),
        MailboxMessage(token, MessageKind.HISTORY_REQUEST, {}),
        MailboxMessage(token, MessageKind.HISTORY_UPLOAD, {}),
        MailboxMessage(token, MessageKind.RELEASE, {}),
        MailboxMessage(token, MessageKind.DROP, {}),
    ]
    messages += [MailboxMessage(token, MessageKind.CATEGORY_DECISION,
                                {"category": category.value}) for category in Category]
    messages += [MailboxMessage(token, MessageKind.TEST_RESULT,
                                {"result": result, "date": date})
                 for result in ("positive", "negative") for date in (0, 4, 5, 9, 10)]
    return messages + [
        MailboxMessage(token, 99, {}),
        MailboxMessage(token, MessageKind.TEST_RESULT, ["result", "positive"]),
        MailboxMessage(token, MessageKind.OPEN_INQUIRY, {**PIN_SUMMARY, "rdi": "ab" * 16}),
        MailboxMessage(token, MessageKind.TEST_RESULT, {"result": "positive", "date": "x"}),
        MailboxMessage(token, MessageKind.TEST_RESULT, {"result": "maybe", "date": 5}),
        MailboxMessage(token, MessageKind.CATEGORIZATION_EVIDENCE, {"reassess": "mid"}),
        MailboxMessage(token, MessageKind.CATEGORY_DECISION, {"category": "category9"}),
    ]


def pin_key(case):
    """Criterion 8's case key, written so that its text is the same in every
    interpreter: its evidence set is sorted."""
    return (case.state.value, case.category and case.category.value,
            case.test_results, case.resolution_epoch,
            case.summary and tuple(sorted(case.summary.items())),
            tuple(sorted({e["reassess"] for e in case.evidence})))


def step_transcript():
    """Step every case reachable in 8 steps with every message of
    `pin_alphabet`: one line per transition, holding the case's key and the
    message going in, and the successor's key, the replies and the audit
    entries the step added coming out. Returns (lines, states)."""
    token = bytes(16)
    alphabet = pin_alphabet(token)
    root = CaseRecord(token=token)
    frontier = {pin_key(root): root}
    visited = set(frontier)
    lines = []
    for _depth in range(8):
        next_frontier = {}
        for key, case in frontier.items():
            for message in alphabet:
                successor = copy.deepcopy(case)
                successor, replies = step(successor, message, today=0)
                successor_key = pin_key(successor)
                lines.append(repr((key, message, successor_key, replies,
                                   successor.audit[len(case.audit):])))
                if successor_key not in visited:
                    visited.add(successor_key)
                    next_frontier[successor_key] = successor
        frontier = next_frontier
    return lines, len(visited)


def test_step_transcript_is_pinned():
    # What each (case, message) pair returns and audits, refusals included:
    # which refusal fires first is part of the contract.
    lines, states = step_transcript()
    assert (len(lines), states) == (90 * 28, 90)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "7a819614640556858e8d3ab4182856d18821f84f0d33260d4f8c4d0e401348ab"


def test_transcript_runs_every_line_of_the_case_machine():
    """The transcript, with the cases `step` never builds, executes every
    line of every `casework` function it enters: `step`, the handler of each
    kind, `_decide` and what they call. So a branch of the case machine that
    no input reaches fails here, and is deleted rather than kept."""
    ran = lines_run(lambda: (step_transcript(), step_cases_step_never_builds()),
                    filename=casework.__file__)
    assert {step.__code__, casework._decide.__code__} <= ran.keys()
    missed = missed_lines(ran)
    assert not missed, missed
