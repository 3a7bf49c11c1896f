"""Command-line front end: simulate, genlist, verify, match, replay, report.

Exit codes: 0 success, 1 domain error, 2 usage error. All file outputs are
written atomically (temp file + rename). Seed precedence for simulate:
--seed flag, then the TRACENET_SEED environment variable, then the config.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import authority as authority_mod
from . import casework, matching, simnet
from .contact_log import MalformedHistory, classify, log_from_records, records_from_csv

SEED_ENV_VAR = "TRACENET_SEED"


class DomainError(Exception):
    pass


def atomic_write(path: str, data) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = "wb" if isinstance(data, (bytes, bytearray)) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tracenet-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracenet",
        description="Privacy-preserving contact tracing: simulator and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write metrics")
    p.add_argument("--config", required=True, help="key=value scenario file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("genlist", help="sign a carrier list from authority state")
    p.add_argument("--state", required=True, help="authority state JSON")
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--key", required=True, help="hex Ed25519 private key file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a signed carrier list")
    p.add_argument("--list", dest="list_path", required=True)
    p.add_argument("--pubkey", required=True, help="hex Ed25519 public key")

    p = sub.add_parser("match", help="match a contact-log CSV against a list")
    p.add_argument("--log", dest="log_csv", required=True)
    p.add_argument("--list", dest="list_path", required=True)
    p.add_argument("--pubkey", required=True)

    p = sub.add_parser("replay", help="replay a mailbox trace through casework")
    p.add_argument("--trace", required=True)

    p = sub.add_parser("report", help="summarize a metrics CSV")
    p.add_argument("--metrics", required=True)

    return parser


def _resolve_seed(args, config):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    return config.seed


def cmd_simulate(args) -> int:
    config = simnet.config_from_file(args.config)
    seed = _resolve_seed(args, config)
    report = simnet.run(config, seed=seed, record_events=True)
    os.makedirs(args.out, exist_ok=True)
    atomic_write(os.path.join(args.out, "metrics.csv"), report.to_csv())
    atomic_write(
        os.path.join(args.out, "events.log"),
        "".join(day + "\n" for day in report.events),
    )
    print(f"wrote {args.out}/metrics.csv and {args.out}/events.log")
    print(f"attack_rate={report.attack_rate:.6f} extinction={int(report.extinction)}")
    return 0


def cmd_genlist(args) -> int:
    # The list codec stores the epoch as an unsigned 32-bit field.
    if not 0 <= args.epoch < 2**32:
        raise DomainError(f"epoch must be in 0..{2**32 - 1}, got {args.epoch}")
    with open(args.state) as fh:
        try:
            state = authority_mod.load_state_entries(fh.read())
        except (authority_mod.Malformed, UnicodeDecodeError) as exc:
            raise DomainError(f"malformed state: {exc}") from exc
    with open(args.key) as fh:
        try:
            state.signing_key = Ed25519PrivateKey.from_private_bytes(
                bytes.fromhex(fh.read().strip())
            )
        except ValueError as exc:  # UnicodeDecodeError included
            raise DomainError(f"bad private key: {exc}") from exc
    lst = state.publish(args.epoch)
    atomic_write(args.out, authority_mod.serialize_list(lst))
    print(f"wrote {args.out} ({len(lst.entries)} entries, epoch {lst.epoch_date})")
    return 0


def _load_verified_list(list_path: str, pubkey_hex: str):
    with open(list_path, "rb") as fh:
        data = fh.read()
    try:
        lst = authority_mod.deserialize_list(data)
    except authority_mod.Malformed as exc:
        raise DomainError(f"malformed list: {exc}") from exc
    try:
        pubkey = bytes.fromhex(pubkey_hex)
    except ValueError as exc:
        raise DomainError(f"bad public key hex: {exc}") from exc
    if not authority_mod.verify_list(lst, pubkey):
        raise DomainError("signature verification failed")
    return lst


def cmd_verify(args) -> int:
    lst = _load_verified_list(args.list_path, args.pubkey)
    print(f"OK: epoch {lst.epoch_date}, {len(lst.entries)} entries")
    return 0


def cmd_match(args) -> int:
    lst = _load_verified_list(args.list_path, args.pubkey)
    with open(args.log_csv) as fh:
        try:
            records = records_from_csv(fh.read())
        except (MalformedHistory, UnicodeDecodeError) as exc:
            raise DomainError(f"malformed history: {exc}") from exc
    log = log_from_records(records)
    index = matching.build_index(lst, verified=True)
    hits = matching.match_contacts(log, index)
    print("date,rdi_hex,duration_minutes,category")
    for hit in hits:
        print(
            f"{hit.date},{hit.rdi.hex()},"
            f"{hit.face_to_face_minutes:.1f},{classify(hit).value}"
        )
    return 0


def cmd_replay(args) -> int:
    with open(args.trace, "rb") as fh:
        data = fh.read()
    cases = {}
    offset = 0
    while offset < len(data):
        try:
            msg, offset = casework.deserialize_message(data, offset)
        except ValueError as exc:
            raise DomainError(f"malformed trace: {exc}") from exc
        case = cases.setdefault(msg.token, casework.CaseRecord(token=msg.token))
        casework.step(case, msg)
    for token in sorted(cases):
        case = cases[token]
        category = case.category.value if case.category else "-"
        print(f"{token.hex()},{case.state.value},{category},"
              f"tests={len(case.test_results)},audit={len(case.audit)}")
    return 0


def cmd_report(args) -> int:
    with open(args.metrics) as fh:
        try:
            report = simnet.MetricsReport.from_csv(fh.read())
        except ValueError as exc:
            raise DomainError(f"malformed metrics CSV: {exc}") from exc
    peak_active = max(report.active_cases, default=0)
    total_tests = sum(report.tests_used)
    print(f"population           {report.population}")
    print(f"days                 {report.days}")
    print(f"attack_rate          {report.attack_rate:.4f}")
    print(f"empirical_r0         {report.empirical_r0:.3f}")
    print(f"peak_active_cases    {peak_active}")
    print(f"total_tests          {total_tests}")
    print(f"extinction           {'yes' if report.extinction else 'no'}"
          + (f" (day {report.extinction_day})" if report.extinction else ""))
    try:
        series = simnet.estimate_R_effective(report)
    except simnet.InsufficientData:
        series = []
    if series:
        mean_r = sum(v for _, v in series) / len(series)
        print(f"mean_effective_R     {mean_r:.3f}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "genlist": cmd_genlist,
    "verify": cmd_verify,
    "match": cmd_match,
    "replay": cmd_replay,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (DomainError, simnet.InvalidConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
