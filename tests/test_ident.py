import math
import random

import pytest
from hypothesis import given, strategies as st

from tracenet.ident import (
    BEACON_LENGTH,
    BEACON_MAGIC,
    NEAR_MAX_M,
    RDI_BYTES,
    BadMagic,
    DailyIdentifier,
    DistanceClass,
    UnsupportedVersion,
    WrongLength,
    decode_beacon,
    encode_beacon,
    estimate_distance_class,
    estimate_distance_m,
    generate_daily_identifier,
    rotate_if_needed,
)


def test_generation_deterministic_under_seed():
    a = generate_daily_identifier(random.Random(7), 100)
    b = generate_daily_identifier(random.Random(7), 100)
    assert a == b
    assert a.date == 100


def test_generation_stream_advances():
    rng = random.Random(7)
    a = generate_daily_identifier(rng, 100)
    b = generate_daily_identifier(rng, 100)
    assert a.rdi != b.rdi


@pytest.mark.parametrize("k", [0, 1, 2, 1000])
def test_one_wide_draw_equals_k_identifier_draws(k):
    # The simulator draws a day's identifiers for k devices as one
    # `randbytes(16 * k)` and slices it; that must be the same stream as k
    # identifiers drawn one by one, and leave the generator in the same state.
    wide, single = random.Random(29), random.Random(29)
    blob = wide.randbytes(RDI_BYTES * k)
    rdis = [generate_daily_identifier(single, 3).rdi for _ in range(k)]
    assert [blob[i * RDI_BYTES:(i + 1) * RDI_BYTES] for i in range(k)] == rdis
    assert wide.getstate() == single.getstate()


def test_no_collisions_in_ten_thousand_draws():
    # At 128 bits the birthday bound puts collision probability below 1e-30.
    rng = random.Random(0)
    rdis = {generate_daily_identifier(rng, 0).rdi for _ in range(10_000)}
    assert len(rdis) == 10_000


def test_rotation_identity_same_day():
    rng = random.Random(1)
    ident = generate_daily_identifier(rng, 100)
    assert rotate_if_needed(ident, 100, rng) is ident


def test_rotation_forced_on_new_day():
    rng = random.Random(1)
    ident = generate_daily_identifier(rng, 100)
    fresh = rotate_if_needed(ident, 101, rng)
    assert fresh.date == 101
    assert fresh.rdi != ident.rdi


def test_rotation_on_clock_regression():
    # A backwards clock still rotates: identifiers are never reused.
    rng = random.Random(1)
    ident = generate_daily_identifier(rng, 100)
    fresh = rotate_if_needed(ident, 99, rng)
    assert fresh.date == 99
    assert fresh.rdi != ident.rdi


def test_bad_rdi_width_rejected():
    with pytest.raises(ValueError):
        DailyIdentifier(rdi=b"short", date=0)


def test_beacon_magic_bytes():
    ident = generate_daily_identifier(random.Random(2), 5)
    payload = encode_beacon(ident)
    assert len(payload) == BEACON_LENGTH
    assert payload[:7] == bytes([0x43, 0x30, 0x46, 0x31, 0x44, 0x31, 0x39])
    assert payload[:7] == BEACON_MAGIC
    assert payload[7] == 0x01


def test_beacon_zero_rdi():
    payload = encode_beacon(DailyIdentifier(rdi=bytes(16), date=0))
    assert payload[8:] == bytes(16)


def test_beacon_round_trip():
    rng = random.Random(3)
    for _ in range(1000):
        ident = generate_daily_identifier(rng, 0)
        assert decode_beacon(encode_beacon(ident)) == ident.rdi


def test_decode_rejects_wrong_length():
    with pytest.raises(WrongLength):
        decode_beacon(b"\x00" * 23)
    with pytest.raises(WrongLength):
        decode_beacon(b"\x00" * 25)


def test_decode_rejects_bad_magic():
    payload = bytearray(encode_beacon(generate_daily_identifier(random.Random(4), 0)))
    payload[0] ^= 0x01
    with pytest.raises(BadMagic):
        decode_beacon(bytes(payload))


def test_decode_rejects_unsupported_version():
    payload = bytearray(encode_beacon(generate_daily_identifier(random.Random(4), 0)))
    payload[7] = 0x02
    with pytest.raises(UnsupportedVersion):
        decode_beacon(bytes(payload))


def test_distance_equal_power_is_one_meter_near():
    assert estimate_distance_m(-59, -59) == pytest.approx(1.0)
    assert estimate_distance_class(-59, -59) == DistanceClass.NEAR


def test_distance_fourteen_db_drop_is_far():
    # 10^(14/20) = 5.0119 m, just over the 5 m mid boundary.
    assert estimate_distance_m(-73, -59) == pytest.approx(5.0119, abs=1e-3)
    assert estimate_distance_class(-73, -59) == DistanceClass.FAR


def test_distance_six_db_drop_is_near_boundary():
    # 10^(6/20) = 1.9953 m, at the inclusive 2 m near boundary.
    assert estimate_distance_m(-65, -59) == pytest.approx(1.9953, abs=1e-3)
    assert estimate_distance_class(-65, -59) == DistanceClass.NEAR


def test_distance_extreme_inputs_clamp_to_far():
    assert estimate_distance_class(-32000, 0) == DistanceClass.FAR
    assert estimate_distance_class(-10**9, 0) == DistanceClass.FAR


@given(
    st.integers(min_value=-120, max_value=0),
    st.integers(min_value=-120, max_value=0),
    st.integers(min_value=-120, max_value=0),
)
def test_distance_class_monotone_in_power_drop(tx, rssi_a, rssi_b):
    lo, hi = sorted((rssi_a, rssi_b))
    # Weaker received signal (more path loss) never looks nearer.
    assert estimate_distance_class(lo, tx) >= estimate_distance_class(hi, tx)


def class_edge(tx, uncached):
    """The adjacent floats (nearer, farther) where the uncached class of a
    received power, at transmit power `tx`, changes; found by bisection."""
    def edges(near_cls):
        nearer, farther = float(tx), -1000.0
        while math.nextafter(farther, math.inf) != nearer:
            mid = (nearer + farther) / 2
            if uncached(mid, tx) <= near_cls:
                nearer = mid
            else:
                farther = mid
        return [nearer, farther]
    return edges(DistanceClass.NEAR) + edges(DistanceClass.MID)


def test_cached_distance_class_equals_uncached():
    uncached = estimate_distance_class.__wrapped__
    # At transmit power 0 this power is exactly 2 m away.
    exact_near = -6.020599913279624
    assert estimate_distance_m(exact_near, 0) == NEAR_MAX_M
    powers = [exact_near, math.inf, -math.inf, math.nan, -0.0, 0.0]
    powers += class_edge(0, uncached) + class_edge(-59, uncached)
    powers += list(range(-130, 1)) + [p + 0.5 for p in range(-130, 1)]
    powers += [float(p) for p in range(-130, 1)]
    for rssi in powers:
        for tx_power in (0, -59, -59.0, math.inf, -math.inf, math.nan):
            # Twice: the first call may fill the cache, the second reads it.
            for _ in range(2):
                assert estimate_distance_class(rssi, tx_power) == \
                    uncached(rssi, tx_power)


def test_distance_class_cache_is_bounded():
    for k in range(1000):
        estimate_distance_class(-k / 7, -59)
    assert estimate_distance_class.cache_info().currsize <= 256


def test_cross_day_bits_look_independent():
    # Smaller version of the unlinkability acceptance check.
    rng = random.Random(11)
    devices = 200
    days = 10
    ids = [
        [generate_daily_identifier(rng, d) for d in range(days)]
        for _ in range(devices)
    ]
    for per_device in ids:
        assert len({i.rdi for i in per_device}) == days
    agreements = [0] * 128
    samples = 0
    for per_device in ids:
        for d in range(days - 1):
            x = int.from_bytes(per_device[d].rdi, "big")
            y = int.from_bytes(per_device[d + 1].rdi, "big")
            same = ~(x ^ y)
            for bit in range(128):
                agreements[bit] += (same >> bit) & 1
            samples += 1
    for bit in range(128):
        rate = agreements[bit] / samples
        assert 0.40 <= rate <= 0.60
