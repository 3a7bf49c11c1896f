"""Anonymous casework: mailbox messages and the quarantine/test state machine.

A hit device either quarantines silently (nothing is ever sent) or opens a
token-addressed inquiry. The token is fresh randomness, unrelated to any
identifier, so the mailbox exchange never reveals who is talking.

Every message, either way, is a `MailboxMessage`: the named tuple `(token,
kind, body)`, whose body is a dict of the kind's fields. It cannot be
changed once built. A message built without a body gets the one empty dict
that all such messages share, so nothing may mutate a message's body: no
function here does, and each reply it builds is given a body of its own.

An inquiry's body is a hit summary (`hit_summary`): the carrier day (`date`)
of the one contact record that matched a carrier, and that record's
near/mid/far tick counts. Nothing else leaves the device: not the carrier's
identifier, which would link the inquiry to a published carrier-day, and no
duration beyond the counts. The authority categorizes the case from those
counts alone. `step` refuses, as an audited no-op, an inquiry body with any
other field and evidence other than a reassessment to near or far, so the
authority stores no identifier that an in-process caller puts in a body.

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
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

from .contact_log import TICKS_PER_DAY, Category, classify_face_ticks

TOKEN_BYTES = 16
DEFAULT_INCUBATION_DAYS = 5
DEFAULT_LOOKBACK_DAYS = 5

# A tuple, not a set: `in` then compares members by identity in C, where a
# set would hash each one through the Python-level `Enum.__hash__`.
ALL_CATEGORIES = (Category.CATEGORY1, Category.CATEGORY2)


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


# The members the functions below read at run time, bound once as module
# globals; only tables built at import spell members through their class.
# On CPython 3.11 the enum metaclass defines `__getattr__`, so every
# attribute read on an enum class, such as `CaseState.CARRIER`, takes the
# interpreter's slow lookup hook: about 0.16 us against 0.03 us without it.
_SELF_QUARANTINED = CaseState.SELF_QUARANTINED
_INQUIRY_OPEN = CaseState.INQUIRY_OPEN
_AWAITING_TEST1 = CaseState.AWAITING_TEST1
_AWAITING_TEST2 = CaseState.AWAITING_TEST2
_CARRIER = CaseState.CARRIER
_RELEASED = CaseState.RELEASED
_DROPPED = CaseState.DROPPED
_OPEN_INQUIRY = MessageKind.OPEN_INQUIRY
_TEST_ORDER = MessageKind.TEST_ORDER
_HISTORY_REQUEST = MessageKind.HISTORY_REQUEST
_RELEASE = MessageKind.RELEASE
_DROP = MessageKind.DROP
_UNCRITICAL = Category.UNCRITICAL


class MailboxMessage(NamedTuple):
    """One mailbox message: the case's token, its kind, and its body (see
    the module docstring). A case keeps its own copy of any body it
    stores. A caller must not mutate `msg.body`: the default body is one
    dict shared by every message built without a body."""

    token: bytes
    kind: MessageKind
    body: dict = {}


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
    each an int in its layout's range (not a bool) or, as a `str`, one of
    its byte's strings.
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
        if type(values[i]) is not str or values[i] not in strings:
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


@dataclass(slots=True)
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


def hit_summary(hit) -> dict:
    """The inquiry body for a hit, the `ContactRecord` that matching
    returns: the carrier-day and the record's near, mid and far tick
    counts. The carrier's identifier stays on the device."""
    near, mid, far = hit.tick_counts
    return {"date": hit.date, "near_ticks": near, "mid_ticks": mid, "far_ticks": far}


def on_hits(hits, preference: str, rng):
    """Device reaction to matched hits.

    preference "quarantine_silently" sends nothing; "negotiate" opens one
    inquiry per distinct carrier-day, each with a fresh random token.
    """
    hits = list(hits)
    if not hits:
        raise NoHits("no hits to act on")
    if preference == "quarantine_silently":
        return _SELF_QUARANTINED, []
    if preference != "negotiate":
        raise ValueError(f"unknown preference {preference!r}")
    messages = []
    seen = set()
    for hit in hits:
        key = (hit.date, hit.rdi)
        if key in seen:
            continue
        seen.add(key)
        messages.append(MailboxMessage(rng.randbytes(TOKEN_BYTES), _OPEN_INQUIRY,
                                       hit_summary(hit)))
    return _INQUIRY_OPEN, messages


_SUMMARY_KEYS = frozenset(_BODIES[_OPEN_INQUIRY][1])
_EVIDENCE_BODIES = ({"reassess": "near"}, {"reassess": "far"})


def _is_hit_summary(body: dict) -> bool:
    """Whether an inquiry body can be categorized: it holds no key but the
    date and the three tick counts that `hit_summary` writes, each tick
    count present is a non-negative int (not a bool), together they fit in
    one day, and a date, if present, is an int. Missing keys count as 0. So
    the authority never keeps an identifier or any other field a body
    carries."""
    if not _SUMMARY_KEYS.issuperset(body):
        return False
    near = body.get("near_ticks", 0)
    mid = body.get("mid_ticks", 0)
    far = body.get("far_ticks", 0)
    return (type(near) is int and type(mid) is int and type(far) is int
            and near >= 0 and mid >= 0 and far >= 0
            and near + mid + far <= TICKS_PER_DAY
            and type(body.get("date", 0)) is int)


def _decide(case: CaseRecord, category: Category, traced_categories, today):
    """Close an open inquiry, erasing its payload: drop it or order its test.
    Returns its one reply, in a list."""
    case.summary = None
    case.evidence = ()
    if category is _UNCRITICAL or category not in traced_categories:
        case.state = _DROPPED
        case.resolution_epoch = today
        return [MailboxMessage(case.token, _DROP, {})]
    case.category = category
    case.state = _AWAITING_TEST1
    # `_value_` is the member's own attribute; `.value` is a property that
    # costs two Python calls.
    return [MailboxMessage(case.token, _TEST_ORDER, {"category": category._value_})]


def categorize(case: CaseRecord, record_summary: dict,
               traced_categories=ALL_CATEGORIES, today: int = None):
    """Decide the category of an open inquiry.

    Uncritical (or a category the authority is not tracing) drops the case;
    otherwise a test is ordered. Both erase the inquiry's payload. The
    case's own `summary`, which `step(OPEN_INQUIRY)` checked and copied, is
    not checked again; any other summary that step would refuse is an
    audited no-op: the inquiry stays open and nothing is sent.
    """
    if case.state is not _INQUIRY_OPEN:
        raise WrongState(f"categorize in state {case.state}")
    if record_summary is not case.summary or record_summary is None:
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
        face_ticks = near + mid + far if item["reassess"] == "near" else 0
    category = classify_face_ticks(face_ticks)
    return case, _decide(case, category, traced_categories, today)


# The handler of each device-to-authority kind: it runs once `step` has
# found the case in one of the kind's states, and returns the replies, or
# the reason it refuses the message.

def _open_inquiry(case: CaseRecord, body: dict, today):
    if not _is_hit_summary(body):
        return "not a hit summary"
    case.state = _INQUIRY_OPEN
    case.summary = dict(body)
    return []


def _add_evidence(case: CaseRecord, body: dict, today):
    if not isinstance(body.get("reassess"), str) or body not in _EVIDENCE_BODIES:
        return "not a reassessment to near or far"
    case.evidence += (dict(body),)
    return []


def _decide_category(case: CaseRecord, body: dict, today):
    # Only a str names a member: an array equal to a member's value does not.
    value = body.get("category")
    if type(value) is not str or value not in _CATEGORIES:
        return f"{value!r} is not a valid Category"
    return _decide(case, Category(value), ALL_CATEGORIES, today)


def _screen_test_result(case: CaseRecord, body: dict):
    """A test result's checks before the case's state: the reason to refuse
    it, or None. So a replayed result is named a duplicate in any state."""
    date = body.get("date", 0)
    if type(date) is not int:
        return "date is not an int"
    if (isinstance(result := body.get("result"), str)
            and (result, date) in case.test_results):
        return "duplicate test result"
    return None


def _test_result(case: CaseRecord, body: dict, today):
    # Positive makes the case a carrier and requests the contact history for
    # the lookback window. A first negative awaits a retest; a second
    # negative dated at least an incubation period after the first releases
    # the person.
    result = body.get("result")
    date = body.get("date", 0)
    if isinstance(result, str) and result == "positive":
        case.test_results += ((result, date),)
        case.state = _CARRIER
        case.resolution_epoch = date
        return [MailboxMessage(case.token, _HISTORY_REQUEST,
                               {"from_date": date - case.lookback_days})]
    if not isinstance(result, str) or result != "negative":
        return f"unknown test result {result!r}"
    if case.state is _AWAITING_TEST1:
        case.test_results += ((result, date),)
        case.state = _AWAITING_TEST2
        return []
    # `step` never leaves a case awaiting its retest without a negative,
    # but a case built by hand may be.
    first_negative = max((d for r, d in case.test_results if r == "negative"), default=None)
    if first_negative is None:
        return "no first negative on record"
    if date < first_negative + case.incubation_days:
        return f"retest at {date} before {first_negative} + {case.incubation_days}"
    case.test_results += ((result, date),)
    case.state = _RELEASED
    case.resolution_epoch = date
    return [MailboxMessage(case.token, _RELEASE, {})]


def _note_upload(case: CaseRecord, body: dict, today):
    # The records go to AuthorityState.register_carrier, which keeps only
    # the identifiers it publishes; the case notes the upload.
    case.audit += ("history uploaded",)
    return []


def _drop(case: CaseRecord, body: dict, today):
    _decide(case, _UNCRITICAL, ALL_CATEGORIES, today)
    return []


# kind -> (name, screen, states, refusal, handler): the kind's name in audit
# entries; the check, if any, that runs before the state check; the states
# the kind is accepted in (tuples: an enum member hashes in Python, but
# compares by identity in C); the refusal in any other state; the handler.
# TEST_ORDER, HISTORY_REQUEST and RELEASE are authority-to-device
# notifications, accepted in no state: receiving one on a case is always a
# protocol violation.
_OPEN = (CaseState.INQUIRY_OPEN,)
_STEPS = {kind: (kind.name, *row) for kind, row in {
    MessageKind.OPEN_INQUIRY: (None, (CaseState.IDLE,), "already open", _open_inquiry),
    MessageKind.CATEGORIZATION_EVIDENCE: (None, _OPEN, "no open inquiry", _add_evidence),
    MessageKind.CATEGORY_DECISION: (None, _OPEN, "no open inquiry", _decide_category),
    MessageKind.TEST_RESULT: (
        _screen_test_result, (CaseState.AWAITING_TEST1, CaseState.AWAITING_TEST2),
        "no test pending", _test_result),
    MessageKind.HISTORY_UPLOAD: (
        None, (CaseState.CARRIER,), "no history requested", _note_upload),
    MessageKind.DROP: (None, _OPEN, "nothing to drop", _drop),
    MessageKind.TEST_ORDER: (None, (), "device-bound message", None),
    MessageKind.HISTORY_REQUEST: (None, (), "device-bound message", None),
    MessageKind.RELEASE: (None, (), "device-bound message", None),
}.items()}


def step(case: CaseRecord, message: MailboxMessage, today: int = None):
    """Total transition function over (case, message).

    Illegal pairs, malformed bodies, unknown kinds, duplicates and premature
    retests never fail: they leave the case unchanged and record an audit
    entry. A plain int kind is read as the `MessageKind` it equals.
    """
    try:
        name, screen, states, refusal, handler = _STEPS[message.kind]
    except (KeyError, TypeError):  # not a kind, or not hashable
        name, reason = f"kind {message.kind!r}", "unknown kind"
    else:
        body = message.body
        if not isinstance(body, dict):
            reason = "body is not an object"
        elif not (reason := screen and screen(case, body)):
            if case.state not in states:
                reason = refusal
            elif type(reason := handler(case, body, today)) is list:
                return case, reason  # the replies
    case.audit += (f"{name} in {case.state.value}: {reason}",)
    return case, []


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
