"""Health-authority state: carrier list ingestion, signed publication, erasure.

The published artifact is a canonical binary serialization of (date, rdi)
entries for the current epoch and the one before, with a detached Ed25519
signature. The authority stores no names, device addresses or locations:
only identifiers, dates, and anonymous case records.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .ident import RDI_BYTES, rdi_to_hex

LIST_MAGIC = b"GACTC"
LIST_VERSION = 0x01
ALG_ED25519 = 0x01

SOURCE_CARRIER_OWN = "carrier"
SOURCE_CONTACT = "contact"

DEFAULT_ERASE_MARGIN_DAYS = 1


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


def generate_keypair(rng=None):
    """Return (private_key, raw_public_bytes). With `rng` the key is derived
    deterministically from the stream (simulation use only)."""
    if rng is None:
        private = Ed25519PrivateKey.generate()
    else:
        private = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
    public = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return private, public


def canonical_body(epoch_date: int, entries, algorithm: int = ALG_ED25519) -> bytes:
    """Bytes covered by the signature: header, epoch, count, sorted entries."""
    parts = [
        LIST_MAGIC,
        bytes([LIST_VERSION, algorithm]),
        struct.pack(">I", epoch_date),
        struct.pack(">I", len(entries)),
    ]
    for date, rdi in entries:
        parts.append(struct.pack(">I", date))
        parts.append(rdi)
    return b"".join(parts)


def serialize_list(lst: SignedCarrierList) -> bytes:
    body = canonical_body(lst.epoch_date, lst.entries, lst.algorithm)
    return body + struct.pack(">H", len(lst.signature)) + lst.signature


def deserialize_list(data: bytes) -> SignedCarrierList:
    header_len = 5 + 2 + 4 + 4
    if len(data) < header_len:
        raise Malformed("truncated header")
    if data[:5] != LIST_MAGIC:
        raise Malformed("bad magic")
    if data[5] != LIST_VERSION:
        raise Malformed(f"unsupported format version {data[5]:#04x}")
    algorithm = data[6]
    epoch_date, count = struct.unpack(">II", data[7:15])
    entry_size = 4 + RDI_BYTES
    entries_end = header_len + count * entry_size
    if len(data) < entries_end + 2:
        raise Malformed("entry count disagrees with body length")
    entries = []
    off = header_len
    for _ in range(count):
        (date,) = struct.unpack(">I", data[off : off + 4])
        entries.append((date, data[off + 4 : off + entry_size]))
        off += entry_size
    (sig_len,) = struct.unpack(">H", data[entries_end : entries_end + 2])
    sig_start = entries_end + 2
    if len(data) != sig_start + sig_len:
        raise Malformed("signature length disagrees with payload")
    return SignedCarrierList(
        epoch_date=epoch_date,
        entries=tuple(entries),
        signature=data[sig_start:],
        algorithm=algorithm,
    )


def verify_list(lst: SignedCarrierList, public_key) -> bool:
    """True iff the signature validates over the canonical serialization.

    Returns False (never raises) on malformed input or the wrong key.
    """
    try:
        if lst.algorithm != ALG_ED25519:
            return False
        if isinstance(public_key, (bytes, bytearray)):
            public_key = Ed25519PublicKey.from_public_bytes(bytes(public_key))
        body = canonical_body(lst.epoch_date, lst.entries, lst.algorithm)
        public_key.verify(lst.signature, body)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


@dataclass
class RetainedHistory:
    """A carrier's uploaded contact history, kept only for categorization
    support and erased after the publication margin."""

    added_epoch: int
    records: list
    key: str  # content hash for idempotent registration


class AuthorityState:
    """Health-authority server state: the publishable carrier-identifier
    table, retained histories, and open cases."""

    def __init__(self, signing_key: Ed25519PrivateKey = None,
                 trace_contact_derived: bool = True):
        self.signing_key = signing_key
        # (date, rdi) -> {"added_epoch": int, "source": str}
        self.entries: dict = {}
        self.retained_histories: dict = {}  # key -> RetainedHistory
        self.cases: dict = {}  # token bytes -> casework.CaseRecord
        self.trace_contact_derived = trace_contact_derived

    def _add_entry(self, date: int, rdi: bytes, added_epoch: int, source: str):
        # Set semantics on (date, rdi); the first registration wins, so
        # duplicate uploads never refresh the publication window.
        if (date, rdi) not in self.entries:
            self.entries[(date, rdi)] = {"added_epoch": added_epoch, "source": source}

    def register_carrier(self, history, infectious_start: int,
                         own_identifiers=(), today: int = 0) -> "AuthorityState":
        """Ingest a positive-tested person's upload.

        `history` is the carrier's contact records from the infectious
        window; `own_identifiers` is the carrier's own (date, rdi) broadcast
        history for the same window. Both enter the publishable entry table,
        flagged by source but indistinguishable once published. Records predating
        `infectious_start` are ignored; if the whole history predates it the
        upload is rejected as stale.
        """
        history = list(history)
        usable = [rec for rec in history if rec.date >= infectious_start]
        if history and not usable:
            raise StaleHistory(
                f"all {len(history)} records predate infectious_start {infectious_start}"
            )
        for date, rdi in own_identifiers:
            if date >= infectious_start:
                self._add_entry(date, rdi, today, SOURCE_CARRIER_OWN)
        if self.trace_contact_derived:
            for rec in usable:
                self._add_entry(rec.date, rec.foreign_rdi, today, SOURCE_CONTACT)
        if usable:
            key = _history_key(usable)
            if key not in self.retained_histories:
                self.retained_histories[key] = RetainedHistory(
                    added_epoch=today, records=usable, key=key
                )
        return self

    def publish(self, epoch_date: int) -> SignedCarrierList:
        """Sign and publish the entries added this epoch and the one before."""
        if self.signing_key is None:
            raise ValueError("no signing key")
        entries = sorted(
            (date, rdi)
            for (date, rdi), meta in self.entries.items()
            if meta["added_epoch"] in (epoch_date, epoch_date - 1)
        )
        body = canonical_body(epoch_date, entries)
        signature = self.signing_key.sign(body)
        return SignedCarrierList(
            epoch_date=epoch_date, entries=tuple(entries), signature=signature
        )

    def erase_expired(self, epoch_date: int,
                      margin_days: int = DEFAULT_ERASE_MARGIN_DAYS) -> "AuthorityState":
        """Delete non-public data older than the publication margin.

        Retained histories and resolved case payloads from epochs at or
        before epoch_date - margin_days go away; published entries themselves
        are dropped once they fall out of every future publication window.
        """
        history_cutoff = epoch_date - margin_days
        for key in [k for k, h in self.retained_histories.items()
                    if h.added_epoch <= history_cutoff]:
            del self.retained_histories[key]
        for token in [
            t for t, case in self.cases.items()
            if case.resolution_epoch is not None
            and case.resolution_epoch <= history_cutoff
        ]:
            del self.cases[token]
        entry_cutoff = epoch_date - 1 - margin_days
        for key in [k for k, meta in self.entries.items()
                    if meta["added_epoch"] <= entry_cutoff]:
            del self.entries[key]
        return self

    def serialize_state(self) -> str:
        """JSON snapshot of everything the authority stores (minus the
        signing key). Used by erasure and data-minimization checks and by
        the `genlist` CLI."""
        from . import casework  # local import to avoid a cycle

        return json.dumps(
            {
                "entries": [
                    {
                        "date": date,
                        "rdi": rdi_to_hex(rdi),
                        "added_epoch": meta["added_epoch"],
                        "source": meta["source"],
                    }
                    for (date, rdi), meta in sorted(self.entries.items())
                ],
                "retained_histories": [
                    {
                        "added_epoch": h.added_epoch,
                        "records": [
                            {
                                "date": r.date,
                                "rdi": rdi_to_hex(r.foreign_rdi),
                                "near_ticks": r.near_ticks,
                                "mid_ticks": r.mid_ticks,
                                "far_ticks": r.far_ticks,
                            }
                            for r in h.records
                        ],
                    }
                    for _, h in sorted(self.retained_histories.items())
                ],
                "cases": [
                    casework.case_to_dict(case)
                    for _, case in sorted(self.cases.items())
                ],
            },
            sort_keys=True,
            indent=1,
        )


def load_state_entries(text: str) -> AuthorityState:
    """Rebuild an AuthorityState's entry table from a serialize_state dump.

    Only the published-entry table is restored; histories and cases are
    deliberately not round-tripped through files. Raises Malformed on text
    that is not such a dump.
    """
    from .ident import rdi_from_hex

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
        if not (type(date) is int and 0 <= date < 2**32 and type(added) is int):
            raise Malformed(f"entry {n}: date and added_epoch must be integers")
        state.entries[(date, rdi)] = {
            "added_epoch": added,
            "source": item.get("source", SOURCE_CARRIER_OWN),
        }
    return state



def _history_key(records) -> str:
    import hashlib

    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: (r.date, r.foreign_rdi)):
        h.update(struct.pack(">I", rec.date))
        h.update(rec.foreign_rdi)
    return h.hexdigest()
