"""Rotating daily identifiers, the beacon wire format, and distance classing.

A device broadcasts a fresh 128-bit random identifier every calendar day.
The identifier is never derived from anything device-specific, so two days
of broadcasts from the same device are unlinkable.

A receiver hears each neighbour's beacon at every scan, and a simulation
runs many receivers in one process, so the same payload is decoded over
and over. `decode_beacon` therefore keeps the last `DECODE_CACHE_SIZE`
(1024, one day's identifiers for up to 1024 devices) payloads that passed
its checks, each with its identifier, and returns the very same `bytes`
object for every equal payload: every contact log that hears an identifier
then keys on one object, not one copy per sighting. A payload that fails a
check is never cached and raises on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

BEACON_MAGIC = b"C0F1D19"
BEACON_VERSION = 0x01
BEACON_LENGTH = 24
RDI_BYTES = 16

# The 8 bytes every beacon starts with.
_BEACON_HEADER = BEACON_MAGIC + bytes([BEACON_VERSION])

# Payloads `decode_beacon` keeps with their identifiers; see its docstring.
DECODE_CACHE_SIZE = 1024

# Distance class boundaries in meters (inclusive at the near side).
NEAR_MAX_M = 2.0
MID_MAX_M = 5.0
PATH_LOSS_EXPONENT = 2.0


class BeaconError(ValueError):
    """Base class for beacon decoding failures."""


class WrongLength(BeaconError):
    pass


class BadMagic(BeaconError):
    pass


class UnsupportedVersion(BeaconError):
    pass


class DistanceClass(IntEnum):
    """Coarse proximity class; ordering reflects increasing distance."""

    NEAR = 0
    MID = 1
    FAR = 2


@dataclass(frozen=True)
class DailyIdentifier:
    """A device's random pseudonym for one calendar day."""

    rdi: bytes  # 16 bytes, uniform random
    date: int  # days since the simulation epoch

    def __post_init__(self):
        if len(self.rdi) != RDI_BYTES:
            raise ValueError(f"rdi must be {RDI_BYTES} bytes, got {len(self.rdi)}")


def generate_daily_identifier(rng, date: int) -> DailyIdentifier:
    """Draw a fresh identifier for `date` from the given random source."""
    return DailyIdentifier(rdi=rng.randbytes(RDI_BYTES), date=date)


def rotate_if_needed(current: DailyIdentifier, now: int, rng) -> DailyIdentifier:
    """Return `current` if the date is unchanged, else a fresh identifier.

    Any date change forces rotation, including a clock running backwards:
    reusing an old identifier is the privacy failure mode, so we never do.
    """
    if now == current.date:
        return current
    return generate_daily_identifier(rng, now)


def encode_beacon(ident: DailyIdentifier) -> bytes:
    """Encode the 24-byte beacon payload: magic | version | rdi."""
    return _BEACON_HEADER + ident.rdi


def decode_beacon(payload) -> bytes:
    """Extract the rdi from a beacon payload, as `bytes` whatever bytes-like
    object the payload is; an argument that is not one raises TypeError.

    The observation date is the receiver's local date; the payload
    deliberately carries no timestamp.

    Cached: a receiver hears a neighbour's beacon at every scan, and many
    simulated receivers share one process, so equal payloads arrive again
    and again. The last `DECODE_CACHE_SIZE` (1024) payloads that passed the
    checks are kept, each with the identifier decoded from it, and an equal
    payload returns that same `bytes` object, so every log that hears an
    identifier stores one key for it. 1024 holds one day's identifiers for
    a population of up to 1024 devices, at about 250 KB; past that, fewer
    decodes hit, and each still returns an equal identifier. A payload
    that fails a check is never cached: it raises on every call. The cache
    holds payloads and identifiers only, no date, tick, distance class or
    receiving device; but on a device that hears few beacons it can keep
    up to 1024 identifiers past the log's 21 days.

    Raises WrongLength, BadMagic or UnsupportedVersion.
    """
    if type(payload) is not bytes:
        payload = bytes(memoryview(payload))
    return _decode_checked(payload)


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode_checked(payload: bytes) -> bytes:
    if len(payload) != BEACON_LENGTH:
        raise WrongLength(f"expected {BEACON_LENGTH} bytes, got {len(payload)}")
    if payload[:7] != BEACON_MAGIC:
        raise BadMagic(f"bad magic {payload[:7]!r}")
    if payload[7] != BEACON_VERSION:
        raise UnsupportedVersion(f"unsupported version {payload[7]:#04x}")
    return payload[8:]


def estimate_distance_m(rssi_dbm: float, tx_power_dbm: float) -> float:
    """Log-distance path loss inversion: received power to distance in meters.

    tx_power_dbm is the calibrated received power at 1 m.
    """
    exponent = (tx_power_dbm - rssi_dbm) / (10.0 * PATH_LOSS_EXPONENT)
    try:
        return 10.0 ** exponent
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=256, typed=True)
def estimate_distance_class(rssi_dbm: float, tx_power_dbm: float) -> DistanceClass:
    """Map received power to a proximity class (boundaries inclusive below).

    Cached: a pure function of its arguments, and received powers repeat
    (radios report whole dBm), so 256 entries hold every power a run sees.
    `typed` keeps an int and an equal float apart, so each call returns
    exactly what the uncached function would."""
    d = estimate_distance_m(rssi_dbm, tx_power_dbm)
    if d <= NEAR_MAX_M:
        return DistanceClass.NEAR
    if d <= MID_MAX_M:
        return DistanceClass.MID
    return DistanceClass.FAR


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def rdi_from_hex(text: str) -> bytes:
    """Parse an rdi written as exactly 32 hex digits. Unlike
    `bytes.fromhex`, whitespace between the digits is rejected. Either case
    parses, which the state JSON keeps; the history CSV reader then refuses
    any rdi that `bytes.hex` would not write back as it was read."""
    if len(text) != 2 * RDI_BYTES or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"rdi must be {2 * RDI_BYTES} hex digits")
    return bytes.fromhex(text)
