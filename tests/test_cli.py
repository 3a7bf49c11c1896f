import json
import random

import pytest

from tracenet import authority as authority_mod
from tracenet import casework
from tracenet.cli import main
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
            {"date": 3, "rdi": "00" * 16, "duration_minutes": 20.0,
             "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0},
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
    token = bytes([3]) * 16
    messages = [
        casework.MailboxMessage(
            token, casework.MessageKind.OPEN_INQUIRY,
            {"date": 3, "rdi": "00" * 16, "duration_minutes": 20.0,
             "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0},
        ),
        casework.MailboxMessage(
            token, casework.MessageKind.CATEGORY_DECISION, {"category": "category9"},
        ),
    ]
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(b"".join(casework.serialize_message(m) for m in messages))
    code, out, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 0
    assert err == ""
    assert out.strip() == f"{token.hex()},inquiry_open,-,tests=0,audit=1"


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
    (METRICS.replace("1,0,1,0,0,0", "2,0,1,0,0,0"), "line 3: expected day 1"),
    (METRICS.replace("population=10", "population=-10"),
     "population must be >= 0, got -10"),
    (METRICS.replace("days=2", "days=-2"), "days must be >= 0, got -2"),
    (METRICS.replace("latency_days=3", "latency_days=-3"),
     "latency_days must be >= 0, got -3"),
    (METRICS + "2,0,1,0,0,0\n", "line 12: day row after the summary"),
    (METRICS.replace("# population=10", "2,0,1,0,0,0\n# population=10"),
     "line 5: day row after the summary"),
    (METRICS.replace("days=2", "days=50"), "days=50 but 2 day rows"),
    (METRICS.replace("attack_rate=0.100000", "attack_rate=7.5"),
     "attack_rate must be in [0, 1], got 7.5"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=nan"),
     "empirical_r0 must be in [0, inf), got nan"),
    (METRICS.replace("empirical_r0=0.000000", "empirical_r0=-0.5"),
     "empirical_r0 must be in [0, inf), got -0.5"),
    (METRICS.replace("extinction_day=-1", "extinction_day=40"),
     "extinction_day must be -1, got 40"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,0,0,0,0"), "extinction_day must be 1, got -1"),
    (METRICS.replace("extinction=0", "extinction=1"),
     "extinction=1 but extinction_day=-1"),
    # Counts in a form `to_csv` never writes.
    (METRICS.replace("0,1,1,0,0,0", "0,-7,1_0, +3,-2,0"),
     "line 2: active_cases must be a decimal integer, got '1_0'"),
    (METRICS.replace("1,0,1,0,0,0", "1,-7,1,0,0,0"),
     "line 3: expected day 1 and 5 integers >= 0"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,1, +3,0,0"),
     "line 3: quarantined must be a decimal integer, got ' +3'"),
    (METRICS.replace("1,0,1,0,0,0", "1,0,01,0,0,0"),
     "line 3: active_cases must be a decimal integer, got '01'"),
    (METRICS.replace("1,0,1,0,0,0", "01,0,1,0,0,0"),
     "line 3: day must be a decimal integer, got '01'"),
    (METRICS.replace("population=10", "population=1_0"),
     "population must be a decimal integer, got '1_0'"),
    (METRICS.replace("days=2", "days=+2"), "days must be a decimal integer, got '+2'"),
    (METRICS.replace("latency_days=3", "latency_days= 3"),
     "latency_days must be a decimal integer, got ' 3'"),
    (METRICS.replace("extinction_day=-1", "extinction_day=-01"),
     "extinction_day must be a decimal integer, got '-01'"),
    (METRICS.replace("extinction=0", "extinction=+0"),
     "extinction must be a decimal integer, got '+0'"),
], ids=["header", "short-row", "long-row", "day-out-of-order", "negative-population",
        "negative-days", "negative-latency", "row-after-summary",
        "row-inside-summary", "row-count", "attack-rate-above-one", "r0-nan",
        "r0-negative", "extinction-day-past-rows", "extinction-day-not-first-empty",
        "extinction-flag", "noncanonical-row", "negative-count", "signed-count",
        "leading-zero-count", "leading-zero-day", "underscore-population",
        "signed-days", "spaced-latency", "leading-zero-extinction-day",
        "signed-extinction-flag"])
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
    token = bytes([4]) * 16
    trace = tmp_path / "mailbox.bin"
    trace.write_bytes(casework.serialize_message(
        casework.MailboxMessage(token, kind, body)))
    code, out, err = run_cli(["replay", "--trace", str(trace)], capsys)
    assert code == 0
    assert err == ""
    assert out.strip() == f"{token.hex()},idle,-,tests=0,audit=1"


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


@pytest.mark.parametrize("population, value", [(20, "1e20"), (3, "1e12")])
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
