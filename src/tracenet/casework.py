"""Anonymous casework: mailbox messages and the quarantine/test state machine.

A hit device either quarantines silently (nothing is ever sent) or opens a
token-addressed inquiry. The token is fresh randomness, unrelated to any
identifier, so the mailbox exchange never reveals who is talking.

An inquiry's body is a hit summary (`hit_summary`): the one contact record
that matched a carrier, reduced to its carrier day (`date`), the carrier's
identifier, its face-to-face minutes and its near/mid/far tick counts. The
authority categorizes the case from those counts alone.

Case evolution: Idle -> InquiryOpen -> (Dropped | AwaitingTest1) ->
Carrier on a positive test, or AwaitingTest2 after a first negative and
Released after a second negative spaced at least an incubation period.
Illegal or duplicate messages are audited no-ops: the mailbox is
asynchronous and replays are expected.

The category decision, either way, erases the inquiry's summary and
evidence; a case's history fields are tuples that each step rebinds.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from .contact_log import TICKS_PER_DAY, Category, ContactRecord, classify

TOKEN_BYTES = 16
DEFAULT_INCUBATION_DAYS = 5
DEFAULT_LOOKBACK_DAYS = 5

ALL_CATEGORIES = frozenset({Category.CATEGORY1, Category.CATEGORY2})


class NoHits(ValueError):
    pass


class WrongState(ValueError):
    pass


class CaseState(Enum):
    IDLE = "idle"
    SELF_QUARANTINED = "self_quarantined"
    INQUIRY_OPEN = "inquiry_open"
    AWAITING_TEST1 = "awaiting_test1"
    AWAITING_TEST2 = "awaiting_test2"
    CARRIER = "carrier"
    RELEASED = "released"
    DROPPED = "dropped"


class MessageKind(IntEnum):
    OPEN_INQUIRY = 1
    CATEGORIZATION_EVIDENCE = 2
    CATEGORY_DECISION = 3
    TEST_ORDER = 4
    TEST_RESULT = 5
    HISTORY_REQUEST = 6
    HISTORY_UPLOAD = 7
    RELEASE = 8
    DROP = 9


@dataclass(frozen=True)
class MailboxMessage:
    token: bytes
    kind: MessageKind
    body: dict = field(default_factory=dict)


# `json.dumps` with these options builds a new encoder on every call.
_BODY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def serialize_message(msg: MailboxMessage) -> bytes:
    """Length-prefixed wire form: u16 BE payload length, 16-byte token,
    1 kind byte, JSON body."""
    body = _BODY_ENCODER.encode(msg.body).encode()
    payload = msg.token + bytes([msg.kind]) + body
    return struct.pack(">H", len(payload)) + payload


def deserialize_message(data: bytes, offset: int = 0):
    """Decode one message at `offset`; returns (message, next_offset)."""
    if len(data) < offset + 2:
        raise ValueError("truncated length prefix")
    (length,) = struct.unpack(">H", data[offset : offset + 2])
    start = offset + 2
    end = start + length
    if len(data) < end or length < TOKEN_BYTES + 1:
        raise ValueError("truncated message payload")
    token = data[start : start + TOKEN_BYTES]
    kind = MessageKind(data[start + TOKEN_BYTES])
    try:
        body = json.loads(data[start + TOKEN_BYTES + 1 : end] or b"{}")
    except RecursionError as exc:
        raise ValueError("message body nests too deeply") from exc
    return MailboxMessage(token=token, kind=kind, body=body), end


@dataclass
class CaseRecord:
    """Authority-side state for one anonymous inquiry."""

    token: bytes
    state: CaseState = CaseState.IDLE
    category: Category = None
    test_results: tuple = ()  # ((result, date), ...)
    resolution_epoch: int = None
    summary: dict = None
    evidence: tuple = ()
    audit: tuple = ()
    incubation_days: int = DEFAULT_INCUBATION_DAYS
    lookback_days: int = DEFAULT_LOOKBACK_DAYS


def new_token(rng) -> bytes:
    return rng.randbytes(TOKEN_BYTES)


def hit_summary(record) -> dict:
    """Minimal disclosure for an inquiry: the carrier-day and duration and
    distance breakdown, nothing else."""
    return {
        "date": record.date,
        "rdi": record.foreign_rdi.hex(),
        "duration_minutes": record.face_to_face_minutes,
        "near_ticks": record.near_ticks,
        "mid_ticks": record.mid_ticks,
        "far_ticks": record.far_ticks,
    }


def on_hits(hits, preference: str, rng):
    """Device reaction to matched hits.

    preference "quarantine_silently" sends nothing; "negotiate" opens one
    inquiry per distinct carrier-day, each with a fresh random token.
    """
    hits = list(hits)
    if not hits:
        raise NoHits("no hits to act on")
    if preference == "quarantine_silently":
        return CaseState.SELF_QUARANTINED, []
    if preference != "negotiate":
        raise ValueError(f"unknown preference {preference!r}")
    messages = []
    seen = set()
    for hit in hits:
        key = (hit.date, hit.rdi)
        if key in seen:
            continue
        seen.add(key)
        messages.append(
            MailboxMessage(
                token=new_token(rng),
                kind=MessageKind.OPEN_INQUIRY,
                body=hit_summary(hit.contact_record()),
            )
        )
    return CaseState.INQUIRY_OPEN, messages


def _is_hit_summary(body: dict) -> bool:
    """Whether an inquiry body can be categorized: each tick count present
    is a non-negative int (not a bool), together they fit in one day, and a
    date, if present, is an int. Missing keys count as 0."""
    total = 0
    for key in ("near_ticks", "mid_ticks", "far_ticks"):
        count = body.get(key, 0)
        if type(count) is not int or count < 0:
            return False
        total += count
    return total <= TICKS_PER_DAY and type(body.get("date", 0)) is int


def _summary_record(summary: dict, evidence) -> ContactRecord:
    """Rebuild a classification input from an inquiry summary, applying any
    evidence-driven distance reassessment."""
    near = int(summary.get("near_ticks", 0))
    mid = int(summary.get("mid_ticks", 0))
    far = int(summary.get("far_ticks", 0))
    for item in evidence:
        reassess = item.get("reassess") if isinstance(item, dict) else None
        if reassess == "far":
            far += near + mid
            near = mid = 0
        elif reassess == "near":
            near += far
            far = 0
    return ContactRecord(
        foreign_rdi=bytes(16), date=int(summary.get("date", 0)),
        near_ticks=near, mid_ticks=mid, far_ticks=far,
    )


def _decide(case: CaseRecord, category: Category, traced_categories, today):
    """Close an open inquiry, erasing its payload: drop it or order its test."""
    case.summary = None
    case.evidence = ()
    if category == Category.UNCRITICAL or category not in traced_categories:
        case.state = CaseState.DROPPED
        case.resolution_epoch = today
        return case, [MailboxMessage(case.token, MessageKind.DROP, {})]
    case.category = category
    case.state = CaseState.AWAITING_TEST1
    return case, [MailboxMessage(case.token, MessageKind.TEST_ORDER,
                                 {"category": category.value})]


def categorize(case: CaseRecord, record_summary: dict,
               traced_categories=ALL_CATEGORIES, today: int = None):
    """Decide the category of an open inquiry.

    Uncritical (or a category the authority is not tracing) drops the case;
    otherwise a test is ordered. Both erase the inquiry's payload.
    """
    if case.state != CaseState.INQUIRY_OPEN:
        raise WrongState(f"categorize in state {case.state}")
    category = classify(_summary_record(record_summary, case.evidence))
    return _decide(case, category, traced_categories, today)


def step(case: CaseRecord, message: MailboxMessage, today: int = None):
    """Total transition function over (case, message).

    Illegal pairs, malformed bodies, duplicates and premature retests never
    fail: they leave the case unchanged and record an audit entry.
    """
    def illegal(reason):
        case.audit += (f"{message.kind.name} in {case.state.value}: {reason}",)
        return case, []

    if not isinstance(message.body, dict):
        return illegal("body is not an object")
    kind = message.kind
    if kind == MessageKind.OPEN_INQUIRY:
        if case.state != CaseState.IDLE:
            return illegal("already open")
        if not _is_hit_summary(message.body):
            return illegal("not a hit summary")
        case.state = CaseState.INQUIRY_OPEN
        case.summary = dict(message.body)
        return case, []
    if kind == MessageKind.CATEGORIZATION_EVIDENCE:
        if case.state != CaseState.INQUIRY_OPEN:
            return illegal("no open inquiry")
        case.evidence += (dict(message.body),)
        return case, []
    if kind == MessageKind.CATEGORY_DECISION:
        if case.state != CaseState.INQUIRY_OPEN:
            return illegal("no open inquiry")
        try:
            category = Category(message.body.get("category"))
        except ValueError as exc:
            return illegal(str(exc))
        return _decide(case, category, ALL_CATEGORIES, today)
    if kind == MessageKind.TEST_RESULT:
        result = message.body.get("result")
        try:
            date = int(message.body.get("date", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            return illegal(f"bad date: {exc}")
        if (result, date) in case.test_results:
            return illegal("duplicate test result")
        if case.state not in (CaseState.AWAITING_TEST1, CaseState.AWAITING_TEST2):
            return illegal("no test pending")
        # Positive makes the case a carrier and requests the contact history
        # for the lookback window. A first negative awaits a retest; a second
        # negative dated at least an incubation period after the first
        # releases the person.
        if result == "positive":
            case.test_results += ((result, date),)
            case.state = CaseState.CARRIER
            case.resolution_epoch = date
            return case, [MailboxMessage(case.token, MessageKind.HISTORY_REQUEST,
                                         {"from_date": date - case.lookback_days})]
        if result != "negative":
            return illegal(f"unknown test result {result!r}")
        if case.state == CaseState.AWAITING_TEST1:
            case.test_results += ((result, date),)
            case.state = CaseState.AWAITING_TEST2
            return case, []
        first_negative = max(d for r, d in case.test_results if r == "negative")
        if date < first_negative + case.incubation_days:
            return illegal(f"retest at {date} before {first_negative} + "
                           f"{case.incubation_days}")
        case.test_results += ((result, date),)
        case.state = CaseState.RELEASED
        case.resolution_epoch = date
        return case, [MailboxMessage(case.token, MessageKind.RELEASE, {})]
    if kind == MessageKind.HISTORY_UPLOAD:
        if case.state != CaseState.CARRIER:
            return illegal("no history requested")
        # The records go to AuthorityState.register_carrier, which keeps
        # only the identifiers it publishes; the case notes the upload.
        case.audit += ("history uploaded",)
        return case, []
    if kind == MessageKind.DROP:
        if case.state != CaseState.INQUIRY_OPEN:
            return illegal("nothing to drop")
        _decide(case, Category.UNCRITICAL, ALL_CATEGORIES, today)
        return case, []
    # TEST_ORDER, HISTORY_REQUEST and RELEASE are authority-to-device
    # notifications; receiving one on a case is always a protocol violation.
    return illegal("device-bound message")


def case_to_dict(case: CaseRecord) -> dict:
    """JSON-safe snapshot of a case for authority state serialization."""
    return {
        "token": case.token.hex(),
        "state": case.state.value,
        "category": case.category.value if case.category else None,
        "test_results": [[r, d] for r, d in case.test_results],
        "resolution_epoch": case.resolution_epoch,
        "summary": case.summary,
        "evidence": case.evidence,
    }
