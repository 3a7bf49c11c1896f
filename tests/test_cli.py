import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from tracenet import authority as authority_mod
from tracenet import casework, simnet
from tracenet.cli import atomic_write, main
from tracenet.contact_log import HISTORY_CSV_HEADER, ContactLog, records_to_csv
from tracenet.ident import DistanceClass
from tracenet.matching import brute_force_match

SCENARIO = (
    "population=80\n"
    "days=10\n"
    "seed=7\n"
    "index_cases=2\n"
    "p_transmit=0.02\n"
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_simulate_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", "somewhere"])
    assert exc.value.code == 2


def test_simulate_missing_config_file_is_domain_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--config", str(tmp_path / "nope.cfg"),
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert "error:" in err


def test_simulate_is_deterministic(scenario_file, tmp_path, capsys):
    for name in ("a", "b"):
        code, _, _ = run_cli(
            ["simulate", "--config", str(scenario_file),
             "--out", str(tmp_path / name)],
            capsys,
        )
        assert code == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "events.log").read_bytes() == \
        (tmp_path / "b" / "events.log").read_bytes()


def test_simulate_streams_the_joined_event_log(scenario_file, tmp_path, capsys):
    # events.log is written one day's text at a time; the file is the text
    # a single join of the run's days gives.
    code, _, _ = run_cli(["simulate", "--config", str(scenario_file), "--seed", "7",
                          "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    report = simnet.run(simnet.config_from_file(scenario_file), seed=7,
                        record_events=True)
    joined = "".join(day + "\n" for day in report.events)
    assert len(report.events) > 1
    assert (tmp_path / "out" / "events.log").read_bytes() == joined.encode()


def test_seed_flag_overrides_config(scenario_file, tmp_path, capsys):
    run_cli(["simulate", "--config", str(scenario_file),
             "--out", str(tmp_path / "default")], capsys)
    run_cli(["simulate", "--config", str(scenario_file), "--seed", "99",
             "--out", str(tmp_path / "flagged")], capsys)
    assert (tmp_path / "default" / "events.log").read_bytes() != \
        (tmp_path / "flagged" / "events.log").read_bytes()


def test_seed_env_var_between_flag_and_config(scenario_file, tmp_path,
                                              capsys, monkeypatch):
    monkeypatch.setenv("TRACENET_SEED", "99")
    run_cli(["simulate", "--config", str(scenario_file),
             "--out", str(tmp_path / "env")], capsys)
    monkeypatch.delenv("TRACENET_SEED")
    run_cli(["simulate", "--config", str(scenario_file), "--seed", "99",
             "--out", str(tmp_path / "flag")], capsys)
    assert (tmp_path / "env" / "events.log").read_bytes() == \
        (tmp_path / "flag" / "events.log").read_bytes()


def test_bad_seed_env_var_is_domain_error(scenario_file, tmp_path,
                                          capsys, monkeypatch):
    monkeypatch.setenv("TRACENET_SEED", "not-a-number")
    code, _, err = run_cli(
        ["simulate", "--config", str(scenario_file),
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert "TRACENET_SEED" in err


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
def test_negative_seed_is_refused_in_one_line(scenario_file, tmp_path, capsys,
                                              monkeypatch, flag, env):
    # `random.Random` seeds with the absolute value, so seed -1 would write
    # seed 1's files.
    if env is not None:
        monkeypatch.setenv("TRACENET_SEED", env)
    code, _, err = run_cli(["simulate", "--config", str(scenario_file), *flag,
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture
def signed_setup(tmp_path):
    rng = random.Random(21)
    key, pub = authority_mod.generate_keypair(rng)
    state = authority_mod.AuthorityState(signing_key=key)
    ids = [(d, rng.randbytes(16)) for d in (6, 7)]
    state.register_carrier([], 6, own_identifiers=ids, today=7)

    state_path = tmp_path / "state.json"
    state_path.write_text(state.serialize_state())
    key_path = tmp_path / "key.hex"
    key_path.write_text(key.private_bytes_raw().hex())
    list_path = tmp_path / "carriers.bin"
    return state, pub, state_path, key_path, list_path, ids


def test_genlist_then_verify_roundtrip(signed_setup, capsys):
    _, pub, state_path, key_path, list_path, _ = signed_setup
    code, out, _ = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", "7",
         "--key", str(key_path), "--out", str(list_path)],
        capsys,
    )
    assert code == 0
    assert "2 entries" in out
    code, out, _ = run_cli(
        ["verify", "--list", str(list_path), "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 0
    assert out.startswith("OK: epoch 7")


def test_verify_rejects_tampered_list(signed_setup, capsys):
    _, pub, state_path, key_path, list_path, _ = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)
    blob = bytearray(list_path.read_bytes())
    blob[20] ^= 0xFF  # flip a bit inside the first entry
    list_path.write_bytes(bytes(blob))
    code, _, err = run_cli(
        ["verify", "--list", str(list_path), "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 1
    assert "signature verification failed" in err


def test_verify_rejects_truncated_list(signed_setup, capsys):
    _, pub, state_path, key_path, list_path, _ = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)
    list_path.write_bytes(list_path.read_bytes()[:-3])
    code, _, err = run_cli(
        ["verify", "--list", str(list_path), "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 1
    assert "malformed" in err


def test_match_agrees_with_reference_matcher(signed_setup, tmp_path, capsys):
    state, pub, state_path, key_path, list_path, ids = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)

    rng = random.Random(33)
    log = ContactLog()
    hit_date, hit_rdi = ids[0]
    for tick in range(40):  # 20 minutes near: Category 1
        log.observe([(hit_rdi, DistanceClass.NEAR)], hit_date, tick)
    for _ in range(25):
        log.observe([(rng.randbytes(16), DistanceClass.NEAR)],
                    rng.randrange(0, 10), rng.randrange(0, 2880))
    log_path = tmp_path / "history.csv"
    log_path.write_text(records_to_csv(log.export_history(0, 10)))

    code, out, _ = run_cli(
        ["match", "--log", str(log_path), "--list", str(list_path),
         "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "date,rdi_hex,duration_minutes,category"
    expected = brute_force_match(log, state.publish(7))
    assert len(lines) - 1 == len(expected) == 1
    date, rdi_hex, minutes, category = lines[1].split(",")
    assert (int(date), bytes.fromhex(rdi_hex)) == (hit_date, hit_rdi)
    assert float(minutes) == 20.0
    assert category == "category1"


def test_replay_reports_final_states(tmp_path, capsys):
    token_a = bytes([1]) * 16
    token_b = bytes([2]) * 16
    messages = [
        casework.MailboxMessage(
            token_a, casework.MessageKind.OPEN_INQUIRY,
            {"date": 3, "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0},
        ),
        casework.MailboxMessage(
            token_a, casework.MessageKind.CATEGORY_DECISION,
            {"category": "category1"},
        ),
        casework.MailboxMessage(
            token_a, casework.MessageKind.TEST_RESULT,
            {"result": "positive", "date": 5},
        ),
        casework.MailboxMessage(token_b, casework.MessageKind.DROP, {}),
    ]
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(b"".join(casework.serialize_message(m) for m in messages))
    code, out, _ = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert lines[token_a.hex()].startswith("carrier,category1")
    # An unsolicited DROP for an idle case is an audited no-op.
    assert lines[token_b.hex()].startswith("idle,-")
    assert "audit=1" in lines[token_b.hex()]


def test_replay_audits_bad_category_decision(tmp_path, capsys):
    # Every category byte that decodes names a category, so the decision
    # the authority cannot take is one on a case already decided.
    token = bytes([3]) * 16
    messages = [
        casework.MailboxMessage(
            token, casework.MessageKind.OPEN_INQUIRY,
            {"date": 3, "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0},
        ),
        casework.MailboxMessage(
            token, casework.MessageKind.CATEGORY_DECISION, {"category": "uncritical"},
        ),
        casework.MailboxMessage(
            token, casework.MessageKind.CATEGORY_DECISION, {"category": "category1"},
        ),
    ]
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(b"".join(casework.serialize_message(m) for m in messages))
    code, out, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 0
    assert err == ""
    assert out.strip() == f"{token.hex()},dropped,-,tests=0,audit=1"


def test_replay_audits_counts_past_one_day(tmp_path, capsys):
    # The counts fit their u16 fields, so the frame decodes; they sum past
    # 2880 ticks, so `step` audits the inquiry.
    token = bytes([5]) * 16
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(casework.serialize_message(casework.MailboxMessage(
        token, casework.MessageKind.OPEN_INQUIRY,
        {"date": 3, "near_ticks": 2000, "mid_ticks": 0, "far_ticks": 881})))
    code, out, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 0
    assert err == ""
    assert out.strip() == f"{token.hex()},idle,-,tests=0,audit=1"


def frame(kind, body: bytes, token=bytes([6]) * 16) -> bytes:
    """A frame around raw body bytes, with a length prefix that fits them."""
    payload = token + bytes([kind]) + body
    return len(payload).to_bytes(2, "big") + payload


def assert_replay_refuses(trace, data, capsys):
    trace.write_bytes(data)
    code, out, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed trace: ")
    assert err.count("\n") == 1


K = casework.MessageKind


@pytest.mark.parametrize("data", [
    frame(K.CATEGORY_DECISION, b"\x03"),  # past the three categories
    frame(K.TEST_ORDER, b"\x02"),  # no test is ordered for "uncritical"
    frame(K.TEST_RESULT, b"\x02" + bytes(4)),  # neither negative nor positive
    frame(K.CATEGORIZATION_EVIDENCE, b"\x02"),  # neither near nor far
    frame(K.OPEN_INQUIRY, bytes(9)),  # one byte short
    frame(K.OPEN_INQUIRY, bytes(11)),  # one byte long
    frame(K.DROP, b"\x00"),  # DROP has an empty body
    frame(K.HISTORY_REQUEST, bytes(3)),
    frame(0, b""),  # no such kind
    frame(10, b""),
    frame(K.DROP, b"") + frame(K.TEST_RESULT, b"\x01\x00"),  # a good frame first
], ids=["decision-byte", "order-byte", "result-byte", "reassess-byte", "short-inquiry",
        "long-inquiry", "drop-body", "short-history-request", "kind-0", "kind-10",
        "second-frame"])
def test_replay_rejects_body_that_does_not_fit(tmp_path, capsys, data):
    assert_replay_refuses(tmp_path / "mailbox.bin", data, capsys)


def test_replay_rejects_garbage_trace(tmp_path, capsys):
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(b"\x00\xff\x01")
    code, _, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 1
    assert "malformed trace" in err


def test_report_summarizes_metrics(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(["simulate", "--config", str(scenario_file),
             "--out", str(out_dir)], capsys)
    code, out, _ = run_cli(
        ["report", "--metrics", str(out_dir / "metrics.csv")], capsys
    )
    assert code == 0
    assert "population           80" in out
    assert "attack_rate" in out
    assert "extinction" in out


METRICS = (
    "day,new_infections,active_cases,quarantined,tests_used,list_size\n"
    "0,1,1,0,0,0\n"
    "1,0,1,0,0,0\n"
    "# summary\n# population=10\n# days=2\n# latency_days=3\n"
    "# attack_rate=0.100000\n# empirical_r0=0.000000\n# extinction=0\n"
    "# extinction_day=-1\n"
)


@pytest.mark.parametrize("text, detail", [
    ("this,is,not\na,metrics,file\n", "bad metrics CSV header"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,1"), "line 3:"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,1,0,0,0,0,0"), "line 3:"),
    (METRICS.replace("1,0,1,0,0,0", "2,0,1,0,0,0"),
     "line 3: to_csv writes '1,0,1,0,0,0\\n', got '2,0,1,0,0,0\\n'"),
    (METRICS.replace("population=10", "population=-10"),
     "population must be >= 0, got -10"),
    (METRICS.replace("days=2", "days=-2"), "days must be >= 0, got -2"),
    (METRICS.replace("latency_days=3", "latency_days=-3"),
     "latency_days must be >= 0, got -3"),
    (METRICS + "2,0,1,0,0,0\n", "days=2 but 3 day rows"),
    (METRICS.replace("# population=10", "2,0,1,0,0,0\n# population=10"),
     "days=2 but 3 day rows"),
    (METRICS.replace("days=2", "days=50"), "days=50 but 2 day rows"),
    (METRICS.replace("attack_rate=0.100000", "attack_rate=7.5"),
     "attack_rate must be in [0, 1], got 7.5"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=nan"),
     "empirical_r0 must be in [0, inf), got nan"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=-0.5"),
     "empirical_r0 must be in [0, inf), got -0.5"),
    # `to_csv` writes these back unchanged: only the range checks refuse them.
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=inf"),
     "empirical_r0 must be in [0, inf), got inf"),
    (METRICS.replace("attack_rate=0.100000", "attack_rate=nan"),
     "attack_rate must be in [0, 1], got nan"),
    (METRICS.replace("extinction_day=-1", "extinction_day=40"),
     "extinction_day must be -1, got 40"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,0,0,0,0"), "extinction_day must be 1, got -1"),
    (METRICS.replace("extinction=0", "extinction=1"),
     "line 10: to_csv writes '# extinction=0\\n', got '# extinction=1\\n'"),
    # Counts in a form `to_csv` never writes.
    (METRICS.replace("0,1,1,0,0,0", "0,-7,1_0, +3,-2,0"),
     "line 2: expected integers >= 0, got '0,-7,1_0, +3,-2,0'"),
    (METRICS.replace("1,0,1,0,0,0", "1,-7,1,0,0,0"),
     "line 3: expected integers >= 0, got '1,-7,1,0,0,0'"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,1, +3,0,0"),
     "line 3: to_csv writes '1,0,1,3,0,0\\n', got '1,0,1, +3,0,0\\n'"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,01,0,0,0"),
     "line 3: to_csv writes '1,0,1,0,0,0\\n', got '1,0,01,0,0,0\\n'"),
    (METRICS.replace("1,0,1,0,0,0", "01,0,1,0,0,0"),
     "line 3: to_csv writes '1,0,1,0,0,0\\n', got '01,0,1,0,0,0\\n'"),
    (METRICS.replace("population=10", "population=1_0"),
     "line 5: to_csv writes '# population=10\\n', got '# population=1_0\\n'"),
    (METRICS.replace("days=2", "days=+2"),
     "line 6: to_csv writes '# days=2\\n', got '# days=+2\\n'"),
    (METRICS.replace("latency_days=3", "latency_days= 3"),
     "line 7: to_csv writes '# latency_days=3\\n', got '# latency_days= 3\\n'"),
    (METRICS.replace("extinction_day=-1", "extinction_day=-01"),
     "line 11: to_csv writes '# extinction_day=-1\\n', got '# extinction_day=-01\\n'"),
    (METRICS.replace("extinction=0", "extinction=+0"),
     "line 10: to_csv writes '# extinction=0\\n', got '# extinction=+0\\n'"),
    # Rates in a form `to_csv` never writes, though float() reads them.
    (METRICS.replace("attack_rate=0.100000", "attack_rate= 0.1_0"),
     "line 8: to_csv writes '# attack_rate=0.100000\\n', got '# attack_rate= 0.1_0\\n'"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=+1_0.5"),
     "line 9: to_csv writes '# empirical_r0=10.500000\\n', "
     "got '# empirical_r0=+1_0.5\\n'"),
    (METRICS.replace("attack_rate=0.100000", "attack_rate=0.1"),
     "line 8: to_csv writes '# attack_rate=0.100000\\n', got '# attack_rate=0.1\\n'"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=1e-3"),
     "line 9: to_csv writes '# empirical_r0=0.001000\\n', got '# empirical_r0=1e-3\\n'"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=00.500000"),
     "line 9: to_csv writes '# empirical_r0=0.500000\\n', "
     "got '# empirical_r0=00.500000\\n'"),
    # Values `to_csv` would write, laid out in a way it never does.
    (METRICS + "# foo=bar\n", "line 12: to_csv writes '', got '# foo=bar\\n'"),
    (METRICS.replace("# days=2\n", "# days=5\n# days=2\n"),
     "line 6: to_csv writes '# days=2\\n', got '# days=5\\n'"),
    (METRICS.replace("# summary\n", ""),
     "line 4: to_csv writes '# summary\\n', got '# population=10\\n'"),
    (METRICS.replace("# population=", "## population="),
     "no '# population=' line in the summary"),
    (METRICS.replace("# days=2\n# latency_days=3\n", "# latency_days=3\n# days=2\n"),
     "line 6: to_csv writes '# days=2\\n', got '# latency_days=3\\n'"),
    (METRICS.replace("# days=2\n", "# days=2 \n"),
     "line 6: to_csv writes '# days=2\\n', got '# days=2 \\n'"),
    (METRICS.replace("# days=2\n", "#days=2\n"), "no '# days=' line in the summary"),
    (METRICS.replace("# days=2\n", "# days=2\n# a comment\n"),
     "line 7: to_csv writes '# latency_days=3\\n', got '# a comment\\n'"),
    (METRICS[:-1],
     "line 11: to_csv writes '# extinction_day=-1\\n', got '# extinction_day=-1'"),
    (METRICS.replace("# attack_rate=0.100000\n", ""),
     "no '# attack_rate=' line in the summary"),
    (METRICS.replace("attack_rate=0.100000", "attack_rate=abc"),
     "summary: could not convert string to float: 'abc'"),
], ids=["header", "short-row", "long-row", "day-out-of-order", "negative-population",
        "negative-days", "negative-latency", "row-after-summary",
        "row-inside-summary", "row-count", "attack-rate-above-one", "r0-nan",
        "r0-negative", "r0-inf", "attack-rate-nan", "extinction-day-past-rows",
        "extinction-day-not-first-empty", "extinction-flag", "noncanonical-row",
        "negative-count", "signed-count", "leading-zero-count", "leading-zero-day",
        "underscore-population",
        "signed-days", "spaced-latency", "leading-zero-extinction-day",
        "signed-extinction-flag", "underscore-attack-rate", "signed-r0",
        "short-attack-rate", "exponent-r0", "leading-zero-r0", "extra-summary-key",
        "repeated-summary-key", "missing-summary-line", "double-hash",
        "reordered-summary", "trailing-space", "no-space-after-hash", "comment-in-summary",
        "no-final-newline", "missing-rate-line", "unparsed-attack-rate"])
def test_report_rejects_malformed_csv(tmp_path, capsys, text, detail):
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    code, out, err = run_cli(["report", "--metrics", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: malformed metrics CSV: {detail}")
    assert err.count("\n") == 1


def test_report_reads_well_formed_csv(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text(METRICS)
    code, out, _ = run_cli(["report", "--metrics", str(path)], capsys)
    assert code == 0
    assert "population           10" in out


def test_genlist_ignores_keys_of_older_state_dumps(signed_setup, capsys):
    _, pub, state_path, key_path, list_path, ids = signed_setup
    dump = json.loads(state_path.read_text())
    for entry in dump["entries"]:
        entry["source"] = "carrier"
    dump["retained_histories"] = [{"added_epoch": 7, "records": []}]
    state_path.write_text(json.dumps(dump))
    code, _, _ = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", "7",
         "--key", str(key_path), "--out", str(list_path)],
        capsys,
    )
    assert code == 0
    lst = authority_mod.deserialize_list(list_path.read_bytes())
    assert authority_mod.verify_list(lst, pub)
    assert set(lst.entries) == set(ids)


def test_state_json_survives_cli_roundtrip(signed_setup):
    state, _, state_path, _, _, _ = signed_setup
    loaded = authority_mod.load_state_entries(state_path.read_text())
    assert set(loaded.entries) == set(state.entries)
    reparsed = json.loads(loaded.serialize_state())
    original = json.loads(state.serialize_state())
    assert reparsed["entries"] == original["entries"]


@pytest.mark.parametrize("kind,body", [
    (casework.MessageKind.OPEN_INQUIRY, ["date", 3]),
    (casework.MessageKind.CATEGORY_DECISION, "category1"),
    (casework.MessageKind.TEST_RESULT, {"result": "positive", "date": "x"}),
])
def test_replay_audits_malformed_body(tmp_path, capsys, kind, body):
    # These bodies are not their kind's fields: the encoder refuses each
    # message, and replay refuses a frame that carries its JSON text.
    token = bytes([4]) * 16
    with pytest.raises(ValueError):
        casework.serialize_message(casework.MailboxMessage(token, kind, body))
    data = frame(kind, json.dumps(body).encode(), token)
    assert_replay_refuses(tmp_path / "mailbox.bin", data, capsys)


@pytest.mark.parametrize("line, detail", [
    ("population = lots", ":2: bad population"),
    ("trace_contact_derived = ture", ":2: bad trace_contact_derived"),
    ("days = 80", ":2: duplicate key 'days'"),
])
def test_simulate_rejects_mistyped_value(tmp_path, capsys, line, detail):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"days=10\n{line}\n")
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}{detail}")


@pytest.mark.parametrize("key, value", [
    ("contacts_per_day", "inf"),
    ("contacts_per_day", "nan"),
    ("duration_mean_ticks", "inf"),
])
def test_simulate_rejects_non_finite_value(tmp_path, capsys, key, value):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"population=20\ndays=3\n{key} = {value}\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {key} must be finite, got {value}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("population, value", [(20, "1e20"), (3, "1e12"), (20, "3000")])
def test_simulate_rejects_contact_rate_above_one_per_tick(tmp_path, capsys,
                                                          population, value):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"population={population}\ndays=3\ncontacts_per_day = {value}\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: contacts_per_day must be in [0, 2880], got {float(value)}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("line, problem", [
    ("retention_days = -1", "retention_days must be >= 0, got -1"),
    ("duration_mean_ticks = 0.5", "duration_mean_ticks must be >= 1, got 0.5"),
    ("categories_traced = cat3",
     "categories_traced must be 'cat1' or 'cat1+cat2', got 'cat3'"),
])
def test_simulate_rejects_out_of_range_value(tmp_path, capsys, line, problem):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"population=20\ndays=3\n{line}\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {problem}\n"
    assert not out_dir.exists()


# Scenarios the host could not hold: padding the daily series to 2**62 days
# runs out of memory, and to 10**30 days passes a list's index range. Both lie
# past the last list epoch, so the scenario is refused as it is read, before
# any day is stepped.
@pytest.mark.parametrize("days", [2**62, 10**30],
                         ids=["out_of_memory", "past_index_range"])
def test_simulate_refuses_scenario_too_large_for_the_host(tmp_path, capsys, days):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"population = 1\ndays = {days}\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: days must be in [0, {authority_mod.DATE_LIMIT}], got {days}\n"
    assert not (out_dir / "metrics.csv").exists()


# `tracenet simulate` in a child process whose address space is capped at
# 1 GiB, so a run that grows instead of failing fails the test, not the host.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from tracenet.cli import main
sys.exit(main(sys.argv[1:]))
"""


# Past numpy's index range the scenario is refused as it is read, in one line
# naming `population`. At the bound `World` fails on its first population
# array, before it builds any per-agent text.
@pytest.mark.parametrize("population, error", [
    (10**21, f"error: population must be in [0, {simnet.POPULATION_LIMIT}], "
             f"got {10**21}\n"),
    (simnet.POPULATION_LIMIT, "error: out of memory\n"),
], ids=["past_index_range", "out_of_memory"])
def test_simulate_refuses_population_too_large_for_the_host(tmp_path, population, error):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"population = {population}\ndays = 3\n")
    out_dir = tmp_path / "out"
    src = str(Path(simnet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "simulate", "--config", str(path),
         "--out", str(out_dir)], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", error)
    assert not out_dir.exists()


# No scenario under the bound on `days` reaches these errors alike on every
# host (one that overcommits memory kills the run instead), so the run raises
# them here.
@pytest.mark.parametrize("exc, error", [
    (MemoryError(), "error: out of memory\n"),
    (OverflowError("cannot fit 'int' into an index-sized integer"),
     "error: cannot fit 'int' into an index-sized integer\n"),
], ids=["out_of_memory", "overflow"])
def test_simulate_reports_a_run_the_host_cannot_hold(scenario_file, tmp_path, capsys,
                                                     monkeypatch, exc, error):
    def run(*args, **kwargs):
        raise exc

    monkeypatch.setattr(simnet, "run", run)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(scenario_file), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == error
    assert not out_dir.exists()


def test_simulate_rejects_calibration_target(tmp_path, capsys):
    # The R0 target is an argument of calibrate_p_transmit, not a scenario key.
    path = tmp_path / "scenario.cfg"
    path.write_text("population=20\ndays=3\ntarget_r0 = 2\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:3: unknown key 'target_r0'\n"
    assert not out_dir.exists()


def test_simulate_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"days=10\n\xff\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")
    assert not out_dir.exists()


GOOD_ENTRY = {"date": 6, "rdi": "ab" * 16, "added_epoch": 7, "source": "carrier"}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    json.dumps({"entries": {"date": 6}}),
    json.dumps({"entries": [7]}),
    json.dumps({"entries": [{k: v for k, v in GOOD_ENTRY.items() if k != "date"}]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, date="six")]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, date=-1)]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, rdi="zz")]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, rdi=5)]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, rdi=" AB" * 16)]}),
    json.dumps({"entries": [{k: v for k, v in GOOD_ENTRY.items() if k != "rdi"}]}),
    json.dumps({"entries": [dict(GOOD_ENTRY, added_epoch=None)]}),
    json.dumps({"entries": [{k: v for k, v in GOOD_ENTRY.items()
                             if k != "added_epoch"}]}),
])
def test_genlist_rejects_malformed_state(signed_setup, capsys, text):
    _, _, state_path, key_path, list_path, _ = signed_setup
    state_path.write_text(text)
    code, out, err = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", "7",
         "--key", str(key_path), "--out", str(list_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed state:")
    assert err.count("\n") == 1
    assert not list_path.exists()


@pytest.mark.parametrize("target, detail", [
    ("state", "malformed state"),
    ("key", "bad private key"),
])
def test_genlist_rejects_non_utf8_input(signed_setup, capsys, target, detail):
    _, _, state_path, key_path, list_path, _ = signed_setup
    {"state": state_path, "key": key_path}[target].write_bytes(b"\xff")
    code, out, err = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", "7",
         "--key", str(key_path), "--out", str(list_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {detail}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    assert not list_path.exists()


GOOD_ROW = f"6,{'ab' * 16},4,0,0,8,11,1"


def history(*rows):
    return "".join(row + "\n" for row in rows).encode()


@pytest.mark.parametrize("data, detail", [
    (history("bogus,header", "1,2"), "line 1: bad header"),
    (history(HISTORY_CSV_HEADER, "1,2"), "line 2:"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW, GOOD_ROW + ",9"), "line 3:"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW.replace("ab", "zz")), "line 2:"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW, GOOD_ROW.replace("4,0,0", "4,x,0")),
     "line 3:"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW.replace("ab", "", 1)), "line 2:"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW.replace("4,0,0,8,11", "5,0,0,900,3")),
     "line 2: no device logs"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW, GOOD_ROW.replace("4,0,0,8,11", "1,0,0,8,8")),
     "line 3: second row"),
    (b"\xff\xfe", "'utf-8' codec can't decode"),
    # A csv module reader takes each of these; records_to_csv writes none of them.
    (history(HISTORY_CSV_HEADER, GOOD_ROW.replace("ab", "AB")),
     f"line 2: records_to_csv writes '{GOOD_ROW}', got '{GOOD_ROW.replace('ab', 'AB')}'"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW.replace(",8,", ',"8",')),
     "line 2: invalid literal for int()"),
    (history(HISTORY_CSV_HEADER, "", GOOD_ROW), "line 2: expected 8 fields, got 1"),
    (history(HISTORY_CSV_HEADER, GOOD_ROW)[:-1], "line 2: no final newline"),
])
def test_match_rejects_malformed_history(signed_setup, tmp_path, capsys,
                                         data, detail):
    _, pub, state_path, key_path, list_path, _ = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)
    log_path = tmp_path / "history.csv"
    log_path.write_bytes(data)
    code, out, err = run_cli(
        ["match", "--log", str(log_path), "--list", str(list_path),
         "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: malformed history: {detail}")
    assert err.count("\n") == 1


def test_match_reads_crlf_history(signed_setup, tmp_path, capsys):
    """`match` opens the history in text mode, so CRLF line ends arrive as
    the LF ends `records_to_csv` writes."""
    _, pub, state_path, key_path, list_path, ids = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)
    date, rdi = ids[0]
    log_path = tmp_path / "history.csv"
    log_path.write_bytes(
        f"{HISTORY_CSV_HEADER}\r\n{date},{rdi.hex()},40,0,0,0,39,10\r\n".encode())
    code, out, _ = run_cli(
        ["match", "--log", str(log_path), "--list", str(list_path),
         "--pubkey", pub.hex()],
        capsys,
    )
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["category1"]


@pytest.mark.parametrize("epoch", ["-1", str(2**32)])
def test_genlist_rejects_epoch_outside_u32(signed_setup, capsys, epoch):
    _, _, state_path, key_path, list_path, _ = signed_setup
    code, out, err = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", epoch,
         "--key", str(key_path), "--out", str(list_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: epoch must be in 0..4294967295")
    assert err.count("\n") == 1
    assert not list_path.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_a_plain_write_gives(scenario_file, signed_setup,
                                                  tmp_path, capsys, umask, mode):
    _, _, state_path, key_path, list_path, _ = signed_setup
    out_dir = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert run_cli(["simulate", "--config", str(scenario_file),
                        "--out", str(out_dir)], capsys)[0] == 0
        assert run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
                        "--key", str(key_path), "--out", str(list_path)],
                       capsys)[0] == 0
    finally:
        os.umask(previous)
    for path in (out_dir / "metrics.csv", out_dir / "events.log", list_path):
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_genlist_refuses_directory_as_out(signed_setup, tmp_path, capsys):
    _, _, state_path, key_path, _, _ = signed_setup
    out_dir = tmp_path / "lists"
    out_dir.mkdir()
    code, out, err = run_cli(
        ["genlist", "--state", str(state_path), "--epoch", "7",
         "--key", str(key_path), "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    # The message names the output, not the temporary file it deleted.
    assert f"{out_dir}'" in err and ".tracenet-" not in err
    assert not list(tmp_path.glob(".tracenet-*"))
    assert not any(out_dir.iterdir())


def test_atomic_write_reraises_other_errors_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    # Text mode writes only str, so an int fails inside the write.
    with pytest.raises(TypeError):
        atomic_write(str(path), 123)
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_non_hex_pubkey(signed_setup, capsys):
    _, _, state_path, key_path, list_path, _ = signed_setup
    run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
             "--key", str(key_path), "--out", str(list_path)], capsys)
    code, out, err = run_cli(
        ["verify", "--list", str(list_path), "--pubkey", "not-hex"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad public key hex:")
    assert err.count("\n") == 1


def test_report_prints_mean_effective_r(tmp_path, capsys):
    days = 9
    report = simnet.MetricsReport(
        population=50, days=days, latency_days=1,
        new_infections=[1, 2, 3, 2, 4, 3, 1, 2, 0], active_cases=[5] * days,
        quarantined=[0] * days, tests_used=[0] * days, list_size=[0] * days,
        attack_rate=0.36, empirical_r0=2.0, extinction_day=-1,
    )
    path = tmp_path / "metrics.csv"
    path.write_text(report.to_csv())
    code, out, _ = run_cli(["report", "--metrics", str(path)], capsys)
    assert code == 0
    series = simnet.estimate_R_effective(report)
    assert series
    mean_r = sum(r for _, r in series) / len(series)
    assert out.splitlines()[-1] == f"mean_effective_R     {mean_r:.3f}"


@pytest.mark.parametrize("flag, prefix", [
    ("simulate --config", None),  # the scenario reader names the file
    ("genlist --state", "malformed state"),
    ("genlist --key", "bad private key"),
    ("verify --list", "malformed list"),
    ("match --list", "malformed list"),
    ("match --log", "malformed history"),
    ("replay --trace", "malformed trace"),
    ("report --metrics", "malformed metrics CSV"),
])
@pytest.mark.parametrize("bad", ["missing", "directory", "undecodable"])
def test_every_input_file_is_refused_in_one_line(signed_setup, scenario_file, tmp_path,
                                                 capsys, flag, prefix, bad):
    """Each command gets well-formed files but for the one flag under test."""
    _, pub, state_path, key_path, list_path, _ = signed_setup
    assert run_cli(["genlist", "--state", str(state_path), "--epoch", "7",
                    "--key", str(key_path), "--out", str(list_path)], capsys)[0] == 0
    log_path = tmp_path / "history.csv"
    log_path.write_text(HISTORY_CSV_HEADER + "\n")
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    elif bad == "undecodable":
        path.write_bytes(b"\xff\xfe\x00")
    command, name = flag.split()
    argv = {
        "simulate": ["--config", str(scenario_file), "--out", str(tmp_path / "out")],
        "genlist": ["--state", str(state_path), "--epoch", "7",
                    "--key", str(key_path), "--out", str(tmp_path / "new.bin")],
        "verify": ["--list", str(list_path), "--pubkey", pub.hex()],
        "match": ["--log", str(log_path), "--list", str(list_path),
                  "--pubkey", pub.hex()],
        "replay": ["--trace", None],
        "report": ["--metrics", None],
    }[command]
    argv[argv.index(name) + 1] = str(path)
    code, out, err = run_cli([command] + argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if bad == "undecodable":
        assert err.startswith(f"error: {prefix or path}: ")
    else:
        assert f"'{path}'" in err
