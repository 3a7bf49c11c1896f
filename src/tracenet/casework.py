"""Anonymous casework: mailbox messages and the quarantine/test state machine.

A hit device either quarantines silently (nothing is ever sent) or opens a
token-addressed inquiry. The token is fresh randomness, unrelated to any
identifier, so the mailbox exchange never reveals who is talking.

An inquiry's body is a hit summary (`hit_summary`): the carrier day (`date`)
of the one contact record that matched a carrier, and that record's
near/mid/far tick counts. Nothing else leaves the device: not the carrier's
identifier, which would link the inquiry to a published carrier-day, and no
duration beyond the counts. The authority categorizes the case from those
counts alone.

On the wire each message kind has one fixed body layout (`_BODIES`): a few
integers and bytes, no keys and no text. The decoder checks only that the
bytes fit the layout, so a frame it accepts re-encodes to the same bytes;
values that fit but make no sense, such as tick counts past one day, reach
`step`, which audits them.

Case evolution: Idle -> InquiryOpen -> (Dropped | AwaitingTest1) ->
Carrier on a positive test, or AwaitingTest2 after a first negative and
Released after a second negative spaced at least an incubation period.
Illegal or duplicate messages are audited no-ops: the mailbox is
asynchronous and replays are expected.

The category decision, either way, erases the inquiry's summary and
evidence; a case's history fields are tuples that each step rebinds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

from .contact_log import TICKS_PER_DAY, Category, classify_face_ticks

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


# Each kind's body: its `struct` layout, the fields it packs in order, and
# for each one-byte field the strings that byte indexes; every other field is
# an int. This table is the only code that knows body bytes.
_CATEGORIES = tuple(c.value for c in Category)
_BODIES = {
    MessageKind.OPEN_INQUIRY: (
        "IHHH", ("date", "near_ticks", "mid_ticks", "far_ticks"), {}),
    MessageKind.CATEGORIZATION_EVIDENCE: (
        "B", ("reassess",), {"reassess": ("near", "far")}),
    MessageKind.CATEGORY_DECISION: (
        "B", ("category",), {"category": _CATEGORIES}),
    # A test is ordered only for category 1 or 2.
    MessageKind.TEST_ORDER: (
        "B", ("category",), {"category": _CATEGORIES[:2]}),
    MessageKind.TEST_RESULT: (
        "BI", ("result", "date"), {"result": ("negative", "positive")}),
    MessageKind.HISTORY_REQUEST: ("i", ("from_date",), {}),
    MessageKind.HISTORY_UPLOAD: ("", (), {}),
    MessageKind.RELEASE: ("", (), {}),
    MessageKind.DROP: ("", (), {}),
}


class _Frame(NamedTuple):
    """One kind's whole frame as a single `struct`: u16 BE payload length,
    token, kind byte, then the body."""

    kind: MessageKind
    codec: struct.Struct
    names: tuple
    # (field position, strings) for each one-byte field: the byte is the
    # index of the field's string.
    choices: tuple


# Keyed by kind; an IntEnum hashes as its int, so the kind byte finds it too.
_FRAMES = {
    kind: _Frame(kind, struct.Struct(f">H{TOKEN_BYTES}sB{layout}"), names,
                 tuple((names.index(name), strings) for name, strings in choices.items()))
    for kind, (layout, names, choices) in _BODIES.items()
}


def serialize_message(msg: MailboxMessage) -> bytes:
    """The message's frame: u16 BE payload length, 16-byte token, kind
    byte, then the kind's fixed body layout (`_BODIES`).

    Raises ValueError on a message that does not fit: a token that is not
    16 bytes, or a body that is not a dict with exactly the kind's fields,
    each an int in its layout's range (not a bool) or one of its byte's
    strings.
    """
    frame = _FRAMES.get(msg.kind)
    if frame is None:
        raise ValueError(f"unknown message kind {msg.kind!r}")
    kind, codec, names, choices = frame
    token, body = msg.token, msg.body
    if type(token) is not bytes or len(token) != TOKEN_BYTES:
        raise ValueError(f"token must be {TOKEN_BYTES} bytes, got {token!r}")
    if type(body) is not dict or len(body) != len(names):
        raise ValueError(f"{kind.name} body must have fields {names}")
    try:
        values = [body[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"{kind.name} body must have fields {names}") from exc
    for i, strings in choices:
        if values[i] not in strings:
            raise ValueError(f"{kind.name} {names[i]} must be one of {strings}, "
                             f"got {values[i]!r}")
        values[i] = strings.index(values[i])
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{kind.name} body holds {value!r}, not an int")
    try:
        return codec.pack(codec.size - 2, token, kind, *values)
    except struct.error as exc:
        raise ValueError(f"{kind.name} body does not fit: {exc}") from exc


def deserialize_message(data: bytes, offset: int = 0):
    """Decode one frame at `offset`; returns (message, next_offset).

    Raises ValueError on bytes that do not fit a frame `serialize_message`
    writes: an unknown kind byte, a length prefix other than the kind's
    layout holds, too few bytes, or a byte field past its strings. So an
    accepted frame re-encodes to the same bytes.
    """
    kind_at = offset + 2 + TOKEN_BYTES
    if len(data) <= kind_at:
        raise ValueError("truncated message header")
    frame = _FRAMES.get(data[kind_at])
    if frame is None:
        raise ValueError(f"unknown message kind {data[kind_at]}")
    kind, codec, names, choices = frame
    end = offset + codec.size
    if len(data) < end:
        raise ValueError(f"truncated {kind.name} message")
    fields = codec.unpack_from(data, offset)
    if fields[0] != codec.size - 2:
        raise ValueError(f"{kind.name} payload is {codec.size - 2} bytes, "
                         f"the frame says {fields[0]}")
    values = fields[3:]
    if choices:
        values = list(values)
        for i, strings in choices:
            if values[i] >= len(strings):
                raise ValueError(f"{kind.name} {names[i]} byte {values[i]} is "
                                 f"not one of {strings}")
            values[i] = strings[values[i]]
    return MailboxMessage(fields[1], kind, dict(zip(names, values))), end


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


def hit_summary(hit) -> dict:
    """The inquiry body for a hit, the `ContactRecord` that matching
    returns: the carrier-day and the record's near, mid and far tick
    counts. The carrier's identifier stays on the device."""
    return {"date": hit.date, "near_ticks": hit.near_ticks,
            "mid_ticks": hit.mid_ticks, "far_ticks": hit.far_ticks}


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
                body=hit_summary(hit),
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
    otherwise a test is ordered. Both erase the inquiry's payload. A summary
    that `step(OPEN_INQUIRY)` would refuse is an audited no-op: the inquiry
    stays open and nothing is sent.
    """
    if case.state != CaseState.INQUIRY_OPEN:
        raise WrongState(f"categorize in state {case.state}")
    if not (isinstance(record_summary, dict) and _is_hit_summary(record_summary)):
        case.audit += (f"categorize in {case.state.value}: not a hit summary",)
        return case, []
    near = record_summary.get("near_ticks", 0)
    mid = record_summary.get("mid_ticks", 0)
    far = record_summary.get("far_ticks", 0)
    # Evidence reassesses the distance of every tick: to far, which leaves
    # no face-to-face tick, or to near, which makes every tick one.
    face_ticks = near + mid
    for item in case.evidence:
        reassess = item.get("reassess") if isinstance(item, dict) else None
        if reassess == "far":
            face_ticks = 0
        elif reassess == "near":
            face_ticks = near + mid + far
    category = classify_face_ticks(face_ticks)
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
        date = message.body.get("date", 0)
        if type(date) is not int:
            return illegal("date is not an int")
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
