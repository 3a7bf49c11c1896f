"""Privacy-preserving proximity contact tracing with an epidemic simulator.

Rotating random daily identifiers, device-local contact logs, signed
carrier-list publication, device-side matching, anonymous token-based
casework, and a deterministic agent-based simulator that exercises the
whole protocol end-to-end.
"""

from .ident import (
    DailyIdentifier,
    DistanceClass,
    decode_beacon,
    encode_beacon,
    estimate_distance_class,
    generate_daily_identifier,
    rotate_if_needed,
)
from .contact_log import Category, ContactLog, ContactRecord, classify
from .authority import AuthorityState, SignedCarrierList, verify_list
from .matching import Hit, brute_force_match, build_index, match_contacts
from .casework import CaseRecord, CaseState, MailboxMessage, MessageKind, on_hits
from .simnet import MetricsReport, ScenarioConfig, World, run

__all__ = [
    "DailyIdentifier",
    "DistanceClass",
    "decode_beacon",
    "encode_beacon",
    "estimate_distance_class",
    "generate_daily_identifier",
    "rotate_if_needed",
    "Category",
    "ContactLog",
    "ContactRecord",
    "classify",
    "AuthorityState",
    "SignedCarrierList",
    "verify_list",
    "Hit",
    "brute_force_match",
    "build_index",
    "match_contacts",
    "CaseRecord",
    "CaseState",
    "MailboxMessage",
    "MessageKind",
    "on_hits",
    "MetricsReport",
    "ScenarioConfig",
    "World",
    "run",
]
