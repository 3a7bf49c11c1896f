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

from . import authority as authority_mod
from . import casework, matching, simnet
from .contact_log import classify, log_from_records, records_from_csv

SEED_ENV_VAR = "TRACENET_SEED"


class DomainError(Exception):
    pass


def atomic_write(path: str, data) -> None:
    """Write `data`, a `str`, `bytes` or an iterable of `str` chunks, to a
    temporary file beside `path`, then rename it into place. Chunks are
    written as they come, so the whole text need not be held at once. The
    file gets the mode a plain `open()` would give it, 0o666 less the
    umask: `mkstemp` alone makes it owner-only. An OSError names `path`,
    not the temporary file, which is gone by then."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = "wb" if isinstance(data, (bytes, bytearray)) else "w"
    chunks = (data,) if isinstance(data, (str, bytes, bytearray)) else data
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tracenet-")
        with os.fdopen(fd, mode) as fh:
            fh.writelines(chunks)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
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
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("genlist", help="sign a carrier list from authority state")
    p.add_argument("--state", required=True, help="authority state JSON")
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--key", required=True, help="hex Ed25519 private key file")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_genlist)

    p = sub.add_parser("verify", help="verify a signed carrier list")
    p.add_argument("--list", dest="list_path", required=True)
    p.add_argument("--pubkey", required=True, help="hex Ed25519 public key")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("match", help="match a contact-log CSV against a list")
    p.add_argument("--log", dest="log_csv", required=True)
    p.add_argument("--list", dest="list_path", required=True)
    p.add_argument("--pubkey", required=True)
    p.set_defaults(run=cmd_match)

    p = sub.add_parser("replay", help="replay a mailbox trace through casework")
    p.add_argument("--trace", required=True)
    p.set_defaults(run=cmd_replay)

    p = sub.add_parser("report", help="summarize a metrics CSV")
    p.add_argument("--metrics", required=True)
    p.set_defaults(run=cmd_report)

    return parser


def _parse(path, parse, what, mode="r"):
    """Return `parse` of the contents of the file at `path`. Every reader
    refuses its input with a ValueError (so does a failed text decode), which
    becomes a DomainError prefixed with `what`. A file that cannot be opened
    raises its OSError, whose message names the path."""
    with open(path, mode) as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise DomainError(f"{what}: {exc}") from exc


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
        (day + "\n" for day in report.events),
    )
    print(f"wrote {args.out}/metrics.csv and {args.out}/events.log")
    print(f"attack_rate={report.attack_rate:.6f} extinction={int(report.extinction)}")
    return 0


def cmd_genlist(args) -> int:
    if not 0 <= args.epoch < authority_mod.DATE_LIMIT:
        raise DomainError(
            f"epoch must be in 0..{authority_mod.DATE_LIMIT - 1}, got {args.epoch}")
    state = _parse(args.state, authority_mod.load_state_entries, "malformed state")
    state.signing_key = _parse(args.key, authority_mod.private_key_from_hex,
                               "bad private key")
    lst = state.publish(args.epoch)
    atomic_write(args.out, authority_mod.serialize_list(lst))
    print(f"wrote {args.out} ({len(lst.entries)} entries, epoch {lst.epoch_date})")
    return 0


def _load_verified_list(list_path: str, pubkey_hex: str):
    lst = _parse(list_path, authority_mod.deserialize_list, "malformed list", "rb")
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
    log = log_from_records(_parse(args.log_csv, records_from_csv, "malformed history"))
    index = matching.build_index(lst, verified=True)
    hits = matching.match_contacts(log, index)
    print("date,rdi_hex,duration_minutes,category")
    for hit in hits:
        print(
            f"{hit.date},{hit.rdi.hex()},"
            f"{hit.face_to_face_minutes:.1f},{classify(hit).value}"
        )
    return 0


def _frames(data: bytes) -> list:
    """Every mailbox frame in `data`, in order; a ValueError at the first
    that does not decode, so no frame is stepped from a malformed trace."""
    messages = []
    offset = 0
    while offset < len(data):
        msg, offset = casework.deserialize_message(data, offset)
        messages.append(msg)
    return messages


def cmd_replay(args) -> int:
    cases = {}
    for msg in _parse(args.trace, _frames, "malformed trace", "rb"):
        case = cases.get(msg.token)
        if case is None:
            case = cases[msg.token] = casework.CaseRecord(token=msg.token)
        casework.step(case, msg)
    for token in sorted(cases):
        case = cases[token]
        category = case.category.value if case.category else "-"
        print(f"{token.hex()},{case.state.value},{category},"
              f"tests={len(case.test_results)},audit={len(case.audit)}")
    return 0


def cmd_report(args) -> int:
    report = _parse(args.metrics, simnet.MetricsReport.from_csv, "malformed metrics CSV")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (DomainError, simnet.InvalidConfig, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # carries no text
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
