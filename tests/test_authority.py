import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tracenet.authority import (
    ALG_ED25519,
    DATE_LIMIT,
    AuthorityState,
    Malformed,
    SignedCarrierList,
    StaleHistory,
    canonical_body,
    deserialize_list,
    generate_keypair,
    private_key_from_hex,
    serialize_list,
    verify_list,
)
from tracenet.contact_log import ContactLog
from tracenet.ident import DistanceClass

from linetrace import lines_run, missed_lines


def make_state(trace_contact_derived=True, seed=0):
    key, pub = generate_keypair(random.Random(seed))
    return AuthorityState(signing_key=key,
                          trace_contact_derived=trace_contact_derived), pub


def contact(date, rdi, near=10):
    """The record a device logs after seeing `rdi` near for `near` ticks."""
    return ContactLog().observe_span(rdi, DistanceClass.NEAR, date, 0, near).record(date, rdi)


def own_ids(rng, days):
    return [(d, rng.randbytes(16)) for d in days]


def test_register_adds_one_own_identifier_per_day():
    state, _ = make_state()
    rng = random.Random(1)
    ids = own_ids(rng, range(10, 15))
    state.register_carrier([], infectious_start=10, own_identifiers=ids, today=14)
    assert len(state.entries) == 5
    assert {date for date, _ in state.entries} == {10, 11, 12, 13, 14}


def test_register_is_idempotent():
    state, _ = make_state()
    rng = random.Random(2)
    ids = own_ids(rng, range(10, 15))
    history = [contact(12, rng.randbytes(16))]
    state.register_carrier(history, 10, own_identifiers=ids, today=14)
    snapshot = dict(state.entries)
    state.register_carrier(history, 10, own_identifiers=ids, today=15)
    assert state.entries == snapshot


def test_register_rejects_fully_stale_history():
    state, _ = make_state()
    history = [contact(3, bytes(16)), contact(4, bytes([1]) * 16)]
    with pytest.raises(StaleHistory):
        state.register_carrier(history, infectious_start=10, today=14)


def test_register_ignores_records_before_infectious_start():
    state, _ = make_state()
    rng = random.Random(3)
    old = contact(5, rng.randbytes(16))
    fresh = contact(12, rng.randbytes(16))
    state.register_carrier([old, fresh], 10, today=14)
    assert (12, fresh.rdi) in state.entries
    assert (5, old.rdi) not in state.entries


def test_contact_derived_entries_follow_policy_flag():
    rng = random.Random(4)
    rec = contact(12, rng.randbytes(16))
    on, _ = make_state(trace_contact_derived=True)
    on.register_carrier([rec], 10, today=14)
    assert (12, rec.rdi) in on.entries
    off, _ = make_state(trace_contact_derived=False)
    off.register_carrier([rec], 10, today=14)
    assert (12, rec.rdi) not in off.entries


def test_register_rejects_rdis_the_list_codec_cannot_carry():
    # A 15-byte and a 17-byte rdi on one date: were they entered, the signed
    # list would verify but read back as different entries.
    state, pub = make_state()
    history = [contact(3, bytes([1]) * 15), contact(3, bytes([2]) * 17)]
    with pytest.raises(ValueError, match="rdi must be 16 bytes"):
        state.register_carrier(history, 0, today=3)
    with pytest.raises(ValueError, match="rdi must be 16 bytes"):
        state.register_carrier([], 0, own_identifiers=[(3, bytes(16)), (3, bytes(15))],
                               today=3)
    assert state.entries == {}
    lst = state.publish(3)
    assert verify_list(lst, pub)
    assert deserialize_list(serialize_list(lst)) == lst


@pytest.mark.parametrize("date", [-1, DATE_LIMIT, 1.5, True], ids=repr)
def test_register_rejects_dates_the_list_codec_cannot_carry(date):
    # Were such a date entered, every publish would fail on packing it until
    # the entry aged out: one bad upload would stop the list for everyone.
    state, pub = make_state()
    good = contact(3, bytes([1]) * 16)
    with pytest.raises(ValueError, match="date must be an int"):
        state.register_carrier([good, good._replace(date=date)], -10, today=3)
    with pytest.raises(ValueError, match="date must be an int"):
        state.register_carrier([], -10, own_identifiers=[(3, bytes(16)), (date, bytes(16))],
                               today=3)
    assert state.entries == {}
    state.register_carrier([good], -10, today=3)
    lst = state.publish(3)
    assert verify_list(lst, pub)
    assert deserialize_list(serialize_list(lst)).entries == ((3, good.rdi),)


def test_untraced_contact_identifiers_are_not_stored():
    state, _ = make_state(trace_contact_derived=False)
    rng = random.Random(15)
    history = [contact(date, rng.randbytes(16)) for date in (10, 11, 12)]
    ids = own_ids(rng, [11, 12])
    state.register_carrier(history, 10, own_identifiers=ids, today=12)
    dump = state.serialize_state()
    for rec in history:
        assert rec.rdi.hex() not in dump
    for _, rdi in ids:
        assert rdi.hex() in dump


def test_publication_window_is_epoch_and_day_before():
    state, pub = make_state()
    rng = random.Random(5)
    for epoch in (5, 6, 7):
        state.register_carrier(
            [], epoch, own_identifiers=own_ids(rng, [epoch]), today=epoch
        )
    lst = state.publish(7)
    dates = {date for date, _ in lst.entries}
    assert dates == {6, 7}
    assert verify_list(lst, pub)


def test_publish_empty_list_still_verifies():
    state, pub = make_state()
    lst = state.publish(3)
    assert lst.entries == ()
    assert verify_list(lst, pub)


def test_publish_serialization_is_deterministic():
    state, _ = make_state()
    rng = random.Random(6)
    state.register_carrier([], 7, own_identifiers=own_ids(rng, range(5, 8)), today=7)
    a = serialize_list(state.publish(7))
    b = serialize_list(state.publish(7))
    assert a == b


def test_entries_sorted_canonically():
    state, _ = make_state()
    rng = random.Random(7)
    state.register_carrier([], 0,
                           own_identifiers=own_ids(rng, [3, 1, 2]), today=0)
    lst = state.publish(0)
    assert list(lst.entries) == sorted(lst.entries)


def test_generate_keypair_without_rng_draws_a_fresh_key():
    (key, pub), (_, other) = generate_keypair(), generate_keypair()
    assert len(pub) == 32 and pub != other
    assert verify_list(AuthorityState(signing_key=key).publish(0), pub)


def test_private_key_from_hex_reads_back_a_drawn_key():
    key, pub = generate_keypair(random.Random(5))
    raw = key.private_bytes_raw()
    parsed = private_key_from_hex(f"  {raw.hex()}\n")
    assert parsed.public_key().public_bytes_raw() == pub
    for text in ("", "zz" * 32, raw.hex()[:-2], raw.hex() + "00"):
        with pytest.raises(ValueError):
            private_key_from_hex(text)


def test_publish_refuses_without_a_signing_key():
    with pytest.raises(ValueError, match="no signing key"):
        AuthorityState().publish(0)


def published_list():
    state, pub = make_state()
    state.register_carrier([], 0, own_identifiers=own_ids(random.Random(8), [0, 1]),
                           today=0)
    return state.publish(0), pub


@pytest.mark.parametrize("source", ["published", "decoded"])
def test_verify_rejects_tampered_entries(source):
    lst, pub = published_list()
    if source == "decoded":
        lst = deserialize_list(serialize_list(lst))
    date, rdi = lst.entries[0]
    assert verify_list(lst, pub)
    # `replace` builds a new list, which signs over its own fields rather
    # than the bytes its source was published or decoded with.
    for tampered in (replace(lst, entries=((date + 1, rdi),) + lst.entries[1:]),
                     replace(lst, epoch_date=lst.epoch_date + 1)):
        assert tampered.body != lst.body
        assert not verify_list(tampered, pub)


def test_body_is_the_canonical_encoding_and_not_a_field():
    lst, _ = published_list()
    decoded = deserialize_list(serialize_list(lst))
    fresh = SignedCarrierList(lst.epoch_date, lst.entries, lst.signature)
    for each in (lst, decoded, fresh):
        assert each.body == canonical_body(lst.epoch_date, lst.entries)
    # Equality, hashing and repr see the four fields only.
    assert lst == decoded == fresh
    assert hash(lst) == hash(decoded) == hash(fresh)
    assert repr(lst) == repr(fresh) and "body" not in repr(lst)


def test_verify_rejects_wrong_key():
    state, _ = make_state(seed=1)
    _, other_pub = generate_keypair(random.Random(99))
    lst = state.publish(0)
    assert not verify_list(lst, other_pub)


@pytest.mark.parametrize("key", [
    b"\x00" * 7,
    bytes(32).hex(),
    None,
    7,
    memoryview(b"\x00" * 7),
    [0] * 32,
], ids=["short_bytes", "hex_str", "none", "int", "short_memoryview", "list"])
def test_verify_tolerates_garbage_key(key):
    lst, _ = published_list()
    assert verify_list(lst, key) is False


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_verify_accepts_raw_key_in_any_bytes_like(wrap):
    lst, pub = published_list()
    assert verify_list(lst, wrap(pub)) is True


@pytest.mark.parametrize("change", [
    {"entries": ((-1, bytes(16)),)},
    {"entries": ((2**32, bytes(16)),)},
    {"entries": ((3.5, bytes(16)),)},
    {"entries": (("3", bytes(16)),)},
    {"epoch_date": -1},
    {"epoch_date": 2**32},
    {"epoch_date": 3.5},
], ids=["date_negative", "date_past_u32", "date_float", "date_str",
        "epoch_negative", "epoch_past_u32", "epoch_float"])
def test_verify_returns_false_on_dates_the_codec_cannot_pack(change):
    state, pub = make_state()
    state.register_carrier([], 0, own_identifiers=own_ids(random.Random(12), [0]),
                           today=0)
    lst = state.publish(0)
    assert verify_list(lst, pub)
    assert verify_list(replace(lst, **change), pub) is False


def test_serialize_round_trip_random_lists():
    rng = random.Random(9)
    for _ in range(1000):
        entries = tuple(
            sorted((rng.randrange(0, 10000), rng.randbytes(16))
                   for _ in range(rng.randrange(0, 6)))
        )
        lst = SignedCarrierList(
            epoch_date=rng.randrange(0, 10000),
            entries=entries,
            signature=rng.randbytes(64),
        )
        assert deserialize_list(serialize_list(lst)) == lst


# Round trip of any well-formed encoding, whatever the entries' order or
# repeats: the decoded body is canonical_body of the decoded fields, and
# re-serializing gives back the input bytes.
@settings(max_examples=200, deadline=None)
@given(
    epoch=st.integers(0, 2**32 - 1),
    algorithm=st.integers(0, 255),
    entries=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                               st.binary(min_size=16, max_size=16)), max_size=8),
    repeats=st.integers(0, 3),
    signature=st.binary(max_size=80),
)
def test_decoded_body_is_canonical(epoch, algorithm, entries, repeats, signature):
    entries = tuple(entries + entries[:repeats])
    data = (canonical_body(epoch, entries, algorithm)
            + struct.pack(">H", len(signature)) + signature)
    lst = deserialize_list(data)
    assert (lst.epoch_date, lst.entries, lst.algorithm, lst.signature) == \
        (epoch, entries, algorithm, signature)
    assert lst.body == canonical_body(epoch, entries, algorithm)
    assert serialize_list(lst) == data


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_deserialize_accepts_mutable_buffers(wrap):
    lst, pub = published_list()
    data = serialize_list(lst)
    expected = deserialize_list(data)
    decoded = deserialize_list(wrap(bytearray(data)))
    assert decoded == expected
    assert hash(decoded) == hash(expected)
    assert type(decoded.signature) is bytes and type(decoded.body) is bytes
    assert verify_list(decoded, pub)


def test_deserialize_rejects_truncation():
    state, _ = make_state()
    rng = random.Random(10)
    state.register_carrier([], 0, own_identifiers=own_ids(rng, [0]), today=0)
    data = serialize_list(state.publish(0))
    with pytest.raises(Malformed):
        deserialize_list(data[:-1])
    with pytest.raises(Malformed):
        deserialize_list(data[:10])


def test_deserialize_rejects_count_mismatch():
    state, _ = make_state()
    rng = random.Random(11)
    state.register_carrier([], 0, own_identifiers=own_ids(rng, [0, 1]), today=0)
    data = bytearray(serialize_list(state.publish(0)))
    data[14] = 99  # entry count low byte
    with pytest.raises(Malformed):
        deserialize_list(bytes(data))


def test_deserialize_rejects_bad_magic_and_version():
    state, _ = make_state()
    data = bytearray(serialize_list(state.publish(0)))
    bad_magic = bytes([data[0] ^ 1]) + bytes(data[1:])
    with pytest.raises(Malformed):
        deserialize_list(bad_magic)
    data[5] = 0x07
    with pytest.raises(Malformed):
        deserialize_list(bytes(data))


def exercise_list_codec():
    """Encode, decode and verify one valid list; decode one input per
    `Malformed` text; and verify one list or key per way `verify_list`
    returns False."""
    lst, pub = published_list()
    data = serialize_list(lst)
    decoded = deserialize_list(bytearray(data))
    assert decoded == lst and verify_list(decoded, pub)
    wrong_version = bytearray(data)
    wrong_version[5] = 0x07
    wrong_count = bytearray(data)
    wrong_count[14] = 99
    for bad, text in ((data[:10], "truncated header"),
                      (bytes([data[0] ^ 1]) + data[1:], "bad magic"),
                      (bytes(wrong_version), "unsupported format version 0x07"),
                      (bytes(wrong_count), "entry count disagrees with body length"),
                      (data[:-1], "signature length disagrees with payload")):
        with pytest.raises(Malformed, match=text):
            deserialize_list(bad)
    _, other_pub = generate_keypair(random.Random(99))
    for bad_list, key in ((replace(lst, algorithm=2), pub),
                          (lst, other_pub),
                          (lst, b"\x00" * 7),
                          (lst, None),
                          (replace(lst, epoch_date=2**32), pub)):
        assert verify_list(bad_list, key) is False


def test_list_codec_inputs_run_every_line_of_the_codec():
    """`exercise_list_codec` executes every line of the list codec, so a
    rewrite of its layout cannot keep a branch that none of those inputs
    takes."""
    codes = [fn.__code__ for fn in (canonical_body, serialize_list,
                                    deserialize_list, verify_list)]
    missed = missed_lines(lines_run(exercise_list_codec, codes))
    assert not missed, missed


def test_erase_empty_state_is_identity():
    state, _ = make_state()
    state.erase_expired(10)
    assert state.entries == {} and state.cases == {}


def test_erase_drops_stale_published_entries():
    state, pub = make_state()
    rng = random.Random(13)
    state.register_carrier([], 0, own_identifiers=own_ids(rng, [2]), today=2)
    state.register_carrier([], 0, own_identifiers=own_ids(rng, [5]), today=5)
    state.erase_expired(5)
    epochs = set(state.entries.values())
    # Epoch-2 entries are outside every future publication window.
    assert epochs == {5}
    assert verify_list(state.publish(5), pub)


def test_state_holds_no_identity_fields():
    state, _ = make_state()
    rng = random.Random(14)
    state.register_carrier([contact(12, rng.randbytes(16))], 10,
                           own_identifiers=own_ids(rng, [12]), today=12)
    import json

    dump = json.loads(state.serialize_state())
    assert set(dump) == {"entries", "cases"}
    for entry in dump["entries"]:
        assert set(entry) == {"date", "rdi", "added_epoch"}
