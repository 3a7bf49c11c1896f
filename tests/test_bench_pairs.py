import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(pair, side, wall, ratio, counts=None, correct=True):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "matching.hit_ratio": {"value": ratio, "unit": "ratio"}}
    return {"pair": pair, "side": side, "counts": counts or {"spans_logged": 7},
            "digest": {"sha": "ab"},
            "result": {"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": metrics}}


def test_summary_arithmetic_on_canned_runs():
    tool = load_tool()
    parent = [5.0, 1.0, 3.0, 2.0, 4.0]
    change = [4.0, 0.5, 3.0, 1.5, 3.5]  # pair 3 ties
    runs = [canned_run(k, "parent", w, w) for k, w in enumerate(parent, 1)]
    runs += [canned_run(k, "change", w, w) for k, w in enumerate(change, 1)]
    summary = tool.summarize(runs, {"matching.hit_ratio": "higher"})
    assert summary["pairs"] == 5
    assert summary["all_correct"] and summary["sides_match"]
    assert summary["same_counts_and_digest"] == {"parent": True, "change": True}
    assert summary["wall_s"] == {"parent_median": 3.0, "parent_q1_q3": [2.0, 4.0],
                                 "change_median": 3.0, "change_q1_q3": [1.5, 3.5],
                                 "change_wins": 4, "meets_claim_bar": False,
                                 "within_bound": None}
    # A metric where higher is better: the change won no pair, and tied one.
    assert summary["matching.hit_ratio"]["change_wins"] == 0


def test_claim_bar_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    tool = load_tool()
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    runs = [canned_run(k, "parent", w, w) for k, w in enumerate(parent, 1)]

    def bar(change, better=None):
        change_runs = [canned_run(k, "change", w, w) for k, w in enumerate(change, 1)]
        return tool.summarize(runs + change_runs, better)["wall_s"]["meets_claim_bar"]

    # Parent median 10.0, quartiles 9.925 and 10.1: a spread of 0.175.
    passes = [w - 0.5 for w in parent]
    assert bar(passes)
    # A gap past the spread, but only 8 of 10 pairs won.
    assert not bar(passes[:8] + [10.2, 10.3])
    # 10 of 10 pairs won, but the medians are only 0.1 apart.
    assert not bar([w - 0.1 for w in parent])
    # Where higher is better, the same lower runs win nothing.
    assert not bar(passes, {"wall_s": "higher"})
    assert bar([w + 0.5 for w in parent], {"wall_s": "higher"})


def test_within_bound_compares_medians_in_the_better_direction():
    tool = load_tool()
    # One pair; every parent value is 10.0, and each bound allows 2.5 worse.
    sides = {"parent": {"inside": 10.0, "past": 10.0, "unbounded": 10.0, "higher": 10.0},
             "change": {"inside": 12.5, "past": 12.6, "unbounded": 99.0, "higher": 7.6}}
    runs = [{"pair": 1, "side": side, "counts": {}, "digest": {},
             "result": {"correct": True, "metrics": {
                 name: {"value": value} for name, value in values.items()}}}
            for side, values in sides.items()]
    better = {"higher": "higher"}
    bounds = {"inside": 0.25, "past": 0.25, "higher": 0.25}
    summary = tool.summarize(runs, better, bounds)
    assert summary["inside"]["within_bound"] is True
    assert summary["past"]["within_bound"] is False
    assert summary["unbounded"]["within_bound"] is None
    # Higher is better: 7.6 is 2.4 below the parent, inside 2.5.
    assert summary["higher"]["within_bound"] is True
    runs[1]["result"]["metrics"]["higher"]["value"] = 7.4
    assert tool.summarize(runs, better, bounds)["higher"]["within_bound"] is False


def test_bounds_come_from_benchmark_json(tmp_path):
    tool = load_tool()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "matching.hit_ratio", "better": "higher"}]}))
    assert tool.better_directions(str(tmp_path)) == (
        {"wall_s": "lower", "matching.hit_ratio": "higher"}, {"wall_s": 0.25})
    assert tool.better_directions(str(tmp_path / "missing")) == ({}, {})


def test_summary_flags_a_failed_run_and_differing_work():
    tool = load_tool()
    runs = [canned_run(1, "parent", 1.0, 1.0),
            canned_run(1, "change", 1.0, 1.0, counts={"spans_logged": 8}, correct=False)]
    summary = tool.summarize(runs)
    assert not summary["all_correct"]
    # The sides differ, and each agrees with itself until a change run
    # differs from the change's other runs.
    assert not summary["sides_match"]
    assert summary["same_counts_and_digest"] == {"parent": True, "change": True}
    assert summary["wall_s"]["parent_q1_q3"] == [1.0, 1.0]
    assert summary["counts"] == {"parent": {"spans_logged": 7},
                                 "change": {"spans_logged": 8}}
    runs.append(canned_run(2, "change", 1.0, 1.0))
    summary = tool.summarize(runs)
    assert summary["same_counts_and_digest"] == {"parent": True, "change": False}
    # A side whose runs did different work has no one set of counts.
    assert summary["counts"] == {"parent": {"spans_logged": 7}, "change": None}


FAKE_RUN = '''import json, sys
from pathlib import Path
here = Path.cwd()
values = json.loads((here / "values.json").read_text())
(here / "values.json").write_text(json.dumps(values[1:]))
if values[0] is None:
    sys.exit("run failed")
with open(here.parent / "order.txt", "a") as fh:
    fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
# Three repetitions' raw set-up, the run's value last: its median.
(here / ".perfbench_out").mkdir(exist_ok=True)
reps = [{"raw_setup_s": s} for s in (0.0, 9.0, values[0] / 10)]
(here / ".perfbench_out" / "result-w-seed7-trace0.json").write_text(
    json.dumps({"detail": {"repetitions": reps}}))
print("wall_s 1.0 s")
digest = here / "digest.json"
digest = json.loads(digest.read_text()) if digest.exists() else {}
counts = here / "counts.json"
counts = json.loads(counts.read_text()) if counts.exists() else {"spans_logged": 7}
print(json.dumps({"detail": {}, "counts": counts, "digest": digest}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": values[0], "unit": "s"}}}))
'''


def fake_checkouts(tmp_path, parent, change, digests=None, counts=None):
    """Two checkouts whose perfbench runs report `wall_s` from the given
    values in turn; a None value makes that run fail. `digests` and
    `counts`, if given, map a side to the digest and the counts its runs
    print (else `{}` and `{"spans_logged": 7}`)."""
    for side, values in (("parent", parent), ("change", change)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "values.json").write_text(json.dumps(values))
        if digests:
            (tmp_path / side / "digest.json").write_text(json.dumps(digests[side]))
        if counts:
            (tmp_path / side / "counts.json").write_text(json.dumps(counts[side]))


def test_pairs_alternate_and_land_in_the_out_file(tmp_path, capsys):
    tool = load_tool()
    fake_checkouts(tmp_path, [3.0, 2.0, 4.0], [1.0, 2.5, 5.0])
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept"}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--seed", "7", "--pairs", "3", "--seconds", "5", "--out", str(out)]
    assert tool.main(argv) == 0
    order = (tmp_path / "order.txt").read_text().splitlines()
    assert [line.split()[0] for line in order] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert set(line.split(" ", 1)[1] for line in order) == {
        "--workload w --seed 7 --seconds 5 --trace 0"}
    record = json.loads(out.read_text())
    assert record["what"] == "kept"
    assert len(record["runs"]) == 6
    assert [run["first"] for run in record["runs"]] == ["parent"] * 2 + ["change"] * 2 + [
        "parent"] * 2
    summary = record["summary"]["w seed 7"]
    assert summary["wall_s"]["parent_median"] == 3.0
    assert summary["wall_s"]["change_median"] == 2.5
    assert summary["wall_s"]["change_wins"] == 1
    assert [run["raw_setup_s"] for run in record["runs"]] == [0.3, 0.1, 0.25, 0.2, 0.4, 0.5]
    assert summary["raw_setup_s"]["parent_median"] == 0.3
    assert summary["raw_setup_s"]["change_median"] == 0.25
    assert not (tmp_path / "bench.json.tmp").exists()
    assert "--workload w --seed 7 --seconds 5 --trace 0" in record["commands"]["w seed 7"]
    assert '"w seed 7"' in capsys.readouterr().out


def test_sides_that_print_different_digests_each_agree_with_themselves(tmp_path):
    tool = load_tool()
    fake_checkouts(tmp_path, [3.0, 2.0], [1.0, 2.5],
                   {"parent": {"sha": "old"}, "change": {"sha": "new"}},
                   {"parent": {"hits": 349}, "change": {"hits": 729}})
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--seed", "7", "--pairs", "2", "--seconds", "5", "--out", str(out)]
    assert tool.main(argv) == 0
    record = json.loads(out.read_text())
    assert [run["digest"] for run in record["runs"]] == [
        {"sha": "old"}, {"sha": "new"}, {"sha": "new"}, {"sha": "old"}]
    summary = record["summary"]["w seed 7"]
    assert summary["same_counts_and_digest"] == {"parent": True, "change": True}
    assert not summary["sides_match"]
    # Each side's runs agree, so the summary shows the work each side did.
    assert summary["counts"] == {"parent": {"hits": 349}, "change": {"hits": 729}}


def test_a_failed_run_keeps_the_runs_before_it(tmp_path):
    tool = load_tool()
    fake_checkouts(tmp_path, [3.0, 2.0], [1.0, None])
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": [{"pair": 1, "side": "earlier"}]}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--seed", "7", "--pairs", "2", "--seconds", "5", "--out", str(out)]
    with pytest.raises(RuntimeError, match="run failed"):
        tool.main(argv)
    record = json.loads(out.read_text())
    assert [run["side"] for run in record["runs"]] == ["earlier", "parent", "change"]
    assert record["summary"]["w seed 7"]["pairs"] == 1
    assert record["summary"]["w seed 7"]["wall_s"]["change_median"] == 1.0


def test_runs_may_write_bytecode(monkeypatch, tmp_path):
    # A set-up import that writes `__pycache__` in one checkout and not in
    # the other would time different work, so no run inherits the switch.
    tool = load_tool()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    handed = {}
    (tmp_path / ".perfbench_out").mkdir()
    (tmp_path / ".perfbench_out" / "result-w-seed1-trace0.json").write_text(
        json.dumps({"detail": {"repetitions": [{"raw_setup_s": 0.2}]}}))

    def fake_run(command, **kwargs):
        handed.update(kwargs)
        out = [json.dumps({"counts": {}, "digest": {}}), json.dumps({"metrics": {}})]
        return tool.subprocess.CompletedProcess(command, 0, "\n".join(out), "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run_once(str(tmp_path), "w", 1, 5, 0)["raw_setup_s"] == 0.2
    assert handed["cwd"] == str(tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in handed["env"]
    assert handed["env"]["PATH"] == tool.os.environ["PATH"]
