"""Health-authority state: carrier list ingestion, signed publication, erasure.

The published artifact is a canonical binary serialization of (date, rdi)
entries for the current epoch and the one before, with a detached Ed25519
signature. The authority stores no names, device addresses or locations:
only identifiers, dates, and anonymous case records.

The signed bytes of a list are `lst.body`: `canonical_body` of its fields,
computed at most once per list object. A list from `publish` carries the
body it was signed over, and a list from `deserialize_list` the bytes its
entries were decoded from, so neither re-encodes to verify or serialize.
A list built any other way (including `dataclasses.replace`) encodes its
own fields on first use.

The Ed25519 bindings (cryptography's Rust/OpenSSL extension, about 6 MB of
memory and 7 ms of import) load on the first key generation or parse, sign
or verify, not on import: a run that never signs a list never loads them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

from . import casework
from .ident import RDI_BYTES, rdi_from_hex

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

LIST_MAGIC = b"GACTC"
LIST_VERSION = 0x01
ALG_ED25519 = 0x01

ERASE_MARGIN_DAYS = 1

# The list's wire layout, all big-endian: the header (magic, version,
# algorithm, epoch, entry count), `count` entries of a date and an rdi, then
# the signature's length and the signature. Epoch and dates are u32.
_HEADER = struct.Struct(f">{len(LIST_MAGIC)}sBBII")
_DATE = struct.Struct(">I")
_ENTRY = struct.Struct(f"{_DATE.format}{RDI_BYTES}s")
_SIG_LEN = struct.Struct(">H")
# One past the largest epoch or date a list can carry.
DATE_LIMIT = 1 << 8 * _DATE.size


class Malformed(ValueError):
    pass


class StaleHistory(ValueError):
    pass


@dataclass(frozen=True)
class SignedCarrierList:
    """A published carrier list: canonically ordered entries plus signature."""

    epoch_date: int
    entries: tuple  # tuple of (date, rdi), sorted ascending
    signature: bytes
    algorithm: int = ALG_ED25519

    @cached_property
    def body(self) -> bytes:
        """The bytes the signature covers (not a field: equality, hashing
        and repr ignore it)."""
        return canonical_body(self.epoch_date, self.entries, self.algorithm)


@cache
def _ed25519():
    """cryptography's Ed25519 module and its InvalidSignature, imported on
    the first call; a later call costs one cache lookup."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519
    return ed25519, InvalidSignature


def generate_keypair(rng=None):
    """Return (private_key, raw_public_bytes). With `rng` the key is derived
    deterministically from the stream (simulation use only)."""
    key_type = _ed25519()[0].Ed25519PrivateKey
    if rng is None:
        private = key_type.generate()
    else:
        private = key_type.from_private_bytes(rng.randbytes(32))
    public = private.public_key().public_bytes_raw()
    return private, public


def private_key_from_hex(text: str):
    """The Ed25519 private key whose 32 raw bytes `text` spells in hex,
    surrounding whitespace ignored. Raises ValueError on any other text."""
    return _ed25519()[0].Ed25519PrivateKey.from_private_bytes(bytes.fromhex(text.strip()))


def canonical_body(epoch_date: int, entries, algorithm: int = ALG_ED25519) -> bytes:
    """Bytes covered by the signature: header, epoch, count, sorted entries.
    Each rdi is appended as it is: packing it as a fixed-width field would
    pad or cut one of the wrong length."""
    parts = [_HEADER.pack(LIST_MAGIC, LIST_VERSION, algorithm, epoch_date, len(entries))]
    for date, rdi in entries:
        parts.append(_DATE.pack(date))
        parts.append(rdi)
    return b"".join(parts)


def serialize_list(lst: SignedCarrierList) -> bytes:
    return lst.body + _SIG_LEN.pack(len(lst.signature)) + lst.signature


def _with_body(lst: SignedCarrierList, body: bytes) -> SignedCarrierList:
    """Seed `lst.body` with bytes known to equal canonical_body of its fields."""
    object.__setattr__(lst, "body", body)
    return lst


def deserialize_list(data: bytes) -> SignedCarrierList:
    """Decode a list from any bytes-like object. The decoded list's `body`
    is the slice of `data` its header and entries came from: the checks
    below pin the magic and version, the algorithm byte is kept and the
    entry layout is a bijection, so that slice is its canonical body."""
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    if len(data) < _HEADER.size:
        raise Malformed("truncated header")
    magic, version, algorithm, epoch_date, count = _HEADER.unpack_from(data)
    if magic != LIST_MAGIC:
        raise Malformed("bad magic")
    if version != LIST_VERSION:
        raise Malformed(f"unsupported format version {version:#04x}")
    entries_end = _HEADER.size + count * _ENTRY.size
    sig_start = entries_end + _SIG_LEN.size
    if len(data) < sig_start:
        raise Malformed("entry count disagrees with body length")
    entries = tuple(_ENTRY.iter_unpack(data[_HEADER.size:entries_end]))
    (sig_len,) = _SIG_LEN.unpack_from(data, entries_end)
    if len(data) != sig_start + sig_len:
        raise Malformed("signature length disagrees with payload")
    lst = SignedCarrierList(
        epoch_date=epoch_date,
        entries=entries,
        signature=data[sig_start:],
        algorithm=algorithm,
    )
    return _with_body(lst, data[:entries_end])


def verify_list(lst: SignedCarrierList, public_key) -> bool:
    """True iff the signature validates over the canonical serialization.

    `public_key` is an Ed25519PublicKey or its 32 raw bytes in any
    bytes-like object. Returns False (never raises) on malformed input or
    the wrong key, including a key of any other type and an epoch or entry
    date that is not an int in u32 range.
    """
    ed25519, InvalidSignature = _ed25519()
    try:
        if lst.algorithm != ALG_ED25519:
            return False
        if not isinstance(public_key, ed25519.Ed25519PublicKey):
            # memoryview, not bytes(): bytes(n) of an int would allocate n bytes.
            public_key = ed25519.Ed25519PublicKey.from_public_bytes(
                memoryview(public_key).tobytes())
        public_key.verify(lst.signature, lst.body)
        return True
    except (InvalidSignature, ValueError, TypeError, struct.error):
        return False


class AuthorityState:
    """Health-authority server state: the publishable carrier-identifier
    table and the cases. Uploaded histories are not kept."""

    def __init__(self, signing_key: Ed25519PrivateKey = None,
                 trace_contact_derived: bool = True):
        self.signing_key = signing_key
        self.entries: dict = {}  # (date, rdi) -> added_epoch
        self.cases: dict = {}  # token bytes -> casework.CaseRecord
        self.trace_contact_derived = trace_contact_derived

    def register_carrier(self, history, infectious_start: int,
                         own_identifiers=(), today: int = 0) -> "AuthorityState":
        """Ingest a positive-tested person's upload.

        `history` is the carrier's contact records from the infectious
        window; `own_identifiers` is the carrier's own (date, rdi) broadcast
        history for the same window. The own identifiers, and the contacts'
        identifiers if the authority traces contact-derived entries, enter
        the publishable entry table; the history itself is not stored.
        Records predating `infectious_start` are ignored; if the whole
        history predates it the upload is rejected as stale. The first
        registration of a (date, rdi) wins, so duplicate uploads never
        refresh its publication window.

        Raises ValueError, before any entry is added, when an own
        identifier or a traced record holds an rdi that is not `RDI_BYTES`
        long or a date that is not an int in `0..DATE_LIMIT - 1` (a bool is
        not an int here): the list codec could not carry it, so every later
        `publish` would fail until the entry aged out.
        """
        history = list(history)
        own_identifiers = list(own_identifiers)
        usable = [rec for rec in history if rec.date >= infectious_start]
        if history and not usable:
            raise StaleHistory(
                f"all {len(history)} records predate infectious_start {infectious_start}"
            )
        traced = usable if self.trace_contact_derived else []
        for date, rdi in own_identifiers + [(rec.date, rec.rdi) for rec in traced]:
            if len(rdi) != RDI_BYTES:
                raise ValueError(f"rdi must be {RDI_BYTES} bytes, got {len(rdi)}")
            if not (type(date) is int and 0 <= date < DATE_LIMIT):
                raise ValueError(f"date must be an int in 0..{DATE_LIMIT - 1}, got {date!r}")
        for date, rdi in own_identifiers:
            if date >= infectious_start:
                self.entries.setdefault((date, rdi), today)
        for rec in traced:
            self.entries.setdefault((rec.date, rec.rdi), today)
        return self

    def list_entries(self, epoch_date: int) -> list:
        """The `(date, rdi)` entries added this epoch and the one before, in
        canonical order: what the list published on `epoch_date` carries."""
        return sorted(
            (date, rdi)
            for (date, rdi), added in self.entries.items()
            if added in (epoch_date, epoch_date - 1)
        )

    def publish(self, epoch_date: int) -> SignedCarrierList:
        """Sign and publish the entries added this epoch and the one before."""
        if self.signing_key is None:
            raise ValueError("no signing key")
        entries = tuple(self.list_entries(epoch_date))
        body = canonical_body(epoch_date, entries)
        lst = SignedCarrierList(epoch_date=epoch_date, entries=entries,
                                signature=self.signing_key.sign(body))
        return _with_body(lst, body)

    def erase_expired(self, epoch_date: int) -> "AuthorityState":
        """Delete non-public data older than the publication margin.

        Resolved case payloads from epochs at or before
        epoch_date - ERASE_MARGIN_DAYS go away; published entries themselves
        are dropped once they fall out of every future publication window.
        """
        case_cutoff = epoch_date - ERASE_MARGIN_DAYS
        for token in [
            t for t, case in self.cases.items()
            if case.resolution_epoch is not None
            and case.resolution_epoch <= case_cutoff
        ]:
            del self.cases[token]
        entry_cutoff = epoch_date - 1 - ERASE_MARGIN_DAYS
        for key in [k for k, added in self.entries.items()
                    if added <= entry_cutoff]:
            del self.entries[key]
        return self

    def serialize_state(self) -> str:
        """JSON snapshot of everything the authority stores (minus the
        signing key). Used by erasure and data-minimization checks and by
        the `genlist` CLI."""
        return json.dumps(
            {
                "entries": [
                    {
                        "date": date,
                        "rdi": rdi.hex(),
                        "added_epoch": added,
                    }
                    for (date, rdi), added in sorted(self.entries.items())
                ],
                "cases": [
                    casework.case_to_dict(case)
                    for _, case in sorted(self.cases.items())
                ],
            },
            sort_keys=True,
        )


def load_state_entries(text: str) -> AuthorityState:
    """Rebuild an AuthorityState's entry table from a serialize_state dump.

    Only the published-entry table is restored; cases are deliberately not
    round-tripped through files. Keys that older dumps carry (an entry's
    "source", a "retained_histories" list) are ignored. Raises Malformed on
    text that is not such a dump.

    Unlike the other readers of the package, this one is not held to "the
    writer is the only grammar": so that `genlist` reads older dumps, it
    also takes unknown keys, a missing "cases", an upper-case rdi and a
    repeated (date, rdi), of which the last wins.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise Malformed(f"state is not JSON: {exc}") from exc
    entries = data.get("entries", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise Malformed("state must be an object with an 'entries' list")
    state = AuthorityState()
    for n, item in enumerate(entries):
        try:
            date, added = item["date"], item["added_epoch"]
            rdi = rdi_from_hex(item["rdi"])
        except KeyError as exc:
            raise Malformed(f"entry {n}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise Malformed(f"entry {n}: {exc}") from exc
        # Dates go into the list codec's u32 fields at publication; bools
        # are not integers here.
        if not (type(date) is int and 0 <= date < DATE_LIMIT and type(added) is int):
            raise Malformed(f"entry {n}: date and added_epoch must be integers")
        state.entries[(date, rdi)] = added
    return state
