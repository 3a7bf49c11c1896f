"""Fuzz the decoders and the replay command: any input yields a result or
the module's domain error, never another exception."""

import json
from dataclasses import fields

from hypothesis import example, given, settings, strategies as st

from tracenet import authority, casework
from tracenet.casework import MailboxMessage, MessageKind
from tracenet.cli import main
from tracenet.contact_log import (
    HISTORY_CSV_HEADER,
    Category,
    ContactLog,
    MalformedHistory,
    records_from_csv,
    records_to_csv,
)
from tracenet.ident import DistanceClass
from tracenet.simnet import (
    SERIES,
    InvalidConfig,
    MetricsReport,
    ScenarioConfig,
    config_from_file,
)

FUZZ = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def objects_with(keys):
    """JSON objects that tend to carry the given keys, with any values."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=4),
                           json_values, max_size=4)


dates = st.integers(0, 20) | st.integers(0, 2**32 - 1)
# Tick counts that fit their u16 fields; many sum past one day, which the
# decoder accepts and `step` audits.
ticks = st.integers(0, 2880) | st.integers(0, 2**16 - 1)
BODIES = {
    MessageKind.OPEN_INQUIRY: st.fixed_dictionaries(
        {"date": dates, "near_ticks": ticks, "mid_ticks": ticks, "far_ticks": ticks}),
    MessageKind.CATEGORIZATION_EVIDENCE: st.fixed_dictionaries(
        {"reassess": st.sampled_from(["near", "far"])}),
    MessageKind.CATEGORY_DECISION: st.fixed_dictionaries(
        {"category": st.sampled_from([c.value for c in Category])}),
    MessageKind.TEST_ORDER: st.fixed_dictionaries(
        {"category": st.sampled_from(["category1", "category2"])}),
    MessageKind.TEST_RESULT: st.fixed_dictionaries(
        {"result": st.sampled_from(["negative", "positive"]), "date": dates}),
    MessageKind.HISTORY_REQUEST: st.fixed_dictionaries(
        {"from_date": st.integers(-5, 20) | st.integers(-2**31, 2**31 - 1)}),
    MessageKind.HISTORY_UPLOAD: st.just({}),
    MessageKind.RELEASE: st.just({}),
    MessageKind.DROP: st.just({}),
}
messages = st.sampled_from(MessageKind).flatmap(
    lambda kind: st.builds(MailboxMessage, st.sampled_from([bytes(16), bytes([1]) * 16]),
                           st.just(kind), BODIES[kind]))
KIND_AT = 2 + casework.TOKEN_BYTES


def mutate_frame(frame, how, pos, byte):
    """Flip one bit, insert or delete one byte, or overwrite the kind byte
    (with another kind's, or with one that names no kind)."""
    data = bytearray(frame)
    if how == "flip":
        data[pos % len(data)] ^= 1 << byte % 8
    elif how == "insert":
        data.insert(pos % (len(data) + 1), byte)
    elif how == "delete":
        del data[pos % len(data)]
    else:
        data[KIND_AT] = byte % 11
    return bytes(data)


valid_frames = messages.map(casework.serialize_message)
mutated_frames = st.builds(
    mutate_frame, valid_frames, st.sampled_from(["flip", "insert", "delete", "kind"]),
    st.integers(0, 40), st.integers(0, 255))
frames = valid_frames | mutated_frames
traces = st.binary(max_size=64) | st.builds(
    lambda parts, tail: b"".join(parts) + tail,
    st.lists(frames, max_size=6), st.binary(max_size=4),
)


@FUZZ
@given(traces)
def test_replay_any_trace_exits_0_or_1(tmp_path_factory, data):
    trace = tmp_path_factory.getbasetemp() / "fuzz-mailbox.bin"
    trace.write_bytes(data)
    assert main(["replay", "--trace", str(trace)]) in (0, 1)


config_lines = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from([f.name for f in fields(ScenarioConfig)]) | st.text(max_size=6),
    st.sampled_from(["=", " = ", ""]),
    st.text(max_size=8) | st.integers().map(str) | st.floats().map(str),
)


@FUZZ
@given(st.text() | st.lists(config_lines, max_size=5).map("\n".join))
def test_config_from_file_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-scenario.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(config_from_file(path), ScenarioConfig)
    except InvalidConfig:
        pass


entries = st.lists(
    objects_with(["date", "rdi", "added_epoch", "source"])
    | st.fixed_dictionaries({
        "date": st.integers(-2, 2**33) | json_values,
        "rdi": st.binary(min_size=15, max_size=17).map(bytes.hex) | json_values,
        "added_epoch": st.integers() | json_values,
    }),
    max_size=3,
)


@FUZZ
@given(st.text() | json_values.map(json.dumps)
       | entries.map(lambda e: json.dumps({"entries": e})))
def test_load_state_entries_any_text(text):
    try:
        state = authority.load_state_entries(text)
    except authority.Malformed:
        return
    # Whatever loads can be published: dates fit the list codec.
    authority.canonical_body(0, sorted(state.entries))


signed_lists = st.builds(
    lambda epoch, entries, sig: authority.serialize_list(
        authority.SignedCarrierList(epoch, tuple(entries), sig)),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.binary(min_size=16, max_size=16)),
             max_size=3),
    st.binary(max_size=64),
)
list_bytes = st.binary(max_size=64) | signed_lists | st.builds(
    lambda data, cut, tail: data[:cut] + tail,
    signed_lists, st.integers(0, 200), st.binary(max_size=3),
)


@FUZZ
@given(list_bytes)
def test_deserialize_list_any_bytes(data):
    try:
        lst = authority.deserialize_list(data)
    except authority.Malformed:
        return
    assert isinstance(lst, authority.SignedCarrierList)
    # What decodes re-encodes to the same bytes.
    assert authority.serialize_list(lst) == data


@FUZZ
@given(traces)
def test_deserialize_message_raises_only_value_error(data):
    offset = 0
    while offset < len(data):
        try:
            msg, offset = casework.deserialize_message(data, offset)
        except ValueError:
            return
        assert isinstance(msg, casework.MailboxMessage)


@FUZZ
@given(messages)
def test_mailbox_message_round_trips(msg):
    frame = casework.serialize_message(msg)
    assert casework.deserialize_message(frame) == (msg, len(frame))


@FUZZ
@given(mutated_frames)
def test_mailbox_decoder_accepts_only_what_the_encoder_writes(data):
    try:
        msg, end = casework.deserialize_message(data)
    except ValueError:
        return
    # The frame at the front re-encodes to the same bytes; whatever follows
    # it is the next frame's.
    assert casework.serialize_message(msg) == data[:end]


def mutate(fields, how, pos, text):
    """Keep a row's fields, cut them short, add one, or replace one."""
    if how == "drop":
        return fields[:pos]
    if how == "extra":
        return fields + [text]
    if how == "replace":
        return fields[:pos] + [text] + fields[pos + 1:]
    return fields


def logged_history(spans):
    """The history a device exports after logging the given spans."""
    log = ContactLog()
    for date, rdi, cls, start, n_ticks in spans:
        log.observe_span(rdi, cls, date, start, n_ticks)
    return log.export_history(0, 3)


histories = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([bytes(16), bytes([1]) * 16]),
              st.sampled_from(DistanceClass), st.integers(0, 2879),
              st.integers(1, 120)),
    max_size=12,
).map(logged_history)
logged_rows = histories.filter(bool).flatmap(
    lambda records: st.sampled_from(records_to_csv(records).splitlines()[1:])
).map(lambda line: line.split(","))
numeric_rows = st.builds(
    lambda date, rdi, counts: [str(date), rdi.hex(), *map(str, counts)],
    st.integers(0, 2**32 - 1), st.binary(min_size=16, max_size=16),
    st.lists(st.integers(-1, 2880), min_size=6, max_size=6),
)
history_rows = st.builds(
    lambda fields, how, pos, text: ",".join(mutate(fields, how, pos, text)),
    logged_rows | numeric_rows,
    st.sampled_from(["keep", "keep", "drop", "extra", "replace"]),
    st.integers(0, 7),
    # Any text, or an integer spelled in a way int() reads but str() never writes.
    st.text(max_size=4) | st.from_regex(r" ?\+?0?[0-9](_[0-9])?", fullmatch=True),
)


GOOD_ROW = f"6,{'ab' * 16},4,0,0,8,11,1"


@FUZZ
@example(f"{HISTORY_CSV_HEADER}\n +3,{'ab' * 16},1_0,0,0,4_0,49,3\n")
# A csv module reader takes each of these; records_to_csv writes none of them.
@example(f"{HISTORY_CSV_HEADER}\r\n{GOOD_ROW}\r\n")
@example(f"{HISTORY_CSV_HEADER}\n{GOOD_ROW.replace('ab', 'AB')}\n")
@example(HISTORY_CSV_HEADER + "\n" + GOOD_ROW.replace(",8,", ',"8",') + "\n")
@example(f"{HISTORY_CSV_HEADER}\n\n{GOOD_ROW}\n")
@example(f"{HISTORY_CSV_HEADER}\n{GOOD_ROW}")
@given(st.text()
       | st.lists(history_rows, max_size=4).map(
           lambda rows: "".join(f"{line}\n" for line in [HISTORY_CSV_HEADER, *rows])))
def test_records_from_csv_any_text(text):
    try:
        records = records_from_csv(text)
    except MalformedHistory:
        return
    # The writer is the grammar: every accepted text is what it writes.
    assert records_to_csv(records) == text


@FUZZ
@given(histories)
def test_history_csv_written_by_a_device_round_trips(records):
    text = records_to_csv(records)
    assert records_to_csv(records_from_csv(text)) == text


def metrics_report(rows, population, latency_days, attack_rate, r0):
    """A report as `finalize_report` could write it: the extinction day is
    the first day with no active case."""
    series = {key: [row[i] for row in rows] for i, key in enumerate(SERIES)}
    active = series["active_cases"]
    return MetricsReport(
        population=population, days=len(rows), latency_days=latency_days,
        attack_rate=attack_rate, empirical_r0=r0,
        extinction_day=next((d for d, n in enumerate(active) if n == 0), -1),
        **series)


def mutate_lines(text, edits):
    """Apply each edit to the text's characters or to its lines: insert a
    piece, delete one, or swap one with the next."""
    for unit, how, pos, piece in edits:
        parts = list(text) if unit == "char" else text.splitlines(True)
        pos %= len(parts) + 1
        if how == "insert":
            parts.insert(pos, piece if unit == "char" else piece + "\n")
        elif how == "delete":
            del parts[pos:pos + 1]
        else:
            parts[pos:pos + 2] = parts[pos:pos + 2][::-1]
        text = "".join(parts)
    return text


metrics_texts = st.builds(
    metrics_report,
    st.lists(st.tuples(*[st.integers(0, 12)] * len(SERIES)), max_size=4),
    st.integers(0, 100), st.integers(0, 5),
    st.integers(0, 10**6).map(lambda k: k / 10**6), st.floats(0, 50),
).map(MetricsReport.to_csv)
metrics_edits = st.lists(st.tuples(
    st.sampled_from(["char", "line"]), st.sampled_from(["insert", "delete", "swap"]),
    st.integers(0, 400),
    # A character or line a metrics CSV could hold, or any text.
    st.sampled_from(["0", "1", "-", ",", "#", " ", "=", ".", "\n", "\r", "# summary",
                     "# days=0", "# foo=bar", "0,0,0,0,0,0"])
    | st.text(max_size=3),
), min_size=1, max_size=3)


@FUZZ
@given(st.builds(mutate_lines, metrics_texts, metrics_edits))
def test_metrics_csv_reader_accepts_only_what_to_csv_writes(text):
    try:
        report = MetricsReport.from_csv(text)
    except ValueError:
        return
    assert report.to_csv() == text


@FUZZ
@given(metrics_texts)
def test_metrics_csv_written_by_to_csv_round_trips(text):
    assert MetricsReport.from_csv(text).to_csv() == text
