import importlib.util
import json
from pathlib import Path

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
    assert summary["all_correct"] and summary["same_counts_and_digest"]
    assert summary["wall_s"] == {"parent_median": 3.0, "parent_q1_q3": [2.0, 4.0],
                                 "change_median": 3.0, "change_q1_q3": [1.5, 3.5],
                                 "change_wins": 4}
    # A metric where higher is better: the change won no pair, and tied one.
    assert summary["matching.hit_ratio"]["change_wins"] == 0


def test_summary_flags_a_failed_run_and_differing_work():
    tool = load_tool()
    runs = [canned_run(1, "parent", 1.0, 1.0),
            canned_run(1, "change", 1.0, 1.0, counts={"spans_logged": 8}, correct=False)]
    summary = tool.summarize(runs)
    assert not summary["all_correct"]
    assert not summary["same_counts_and_digest"]
    assert summary["wall_s"]["parent_q1_q3"] == [1.0, 1.0]


FAKE_RUN = '''import json, sys
from pathlib import Path
here = Path.cwd()
values = json.loads((here / "values.json").read_text())
(here / "values.json").write_text(json.dumps(values[1:]))
with open(here.parent / "order.txt", "a") as fh:
    fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
print("wall_s 1.0 s")
print(json.dumps({"detail": {}, "counts": {"spans_logged": 7}, "digest": {}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": values[0], "unit": "s"}}}))
'''


def test_pairs_alternate_and_land_in_the_out_file(tmp_path, capsys):
    tool = load_tool()
    for side, values in (("parent", [3.0, 2.0, 4.0]), ("change", [1.0, 2.5, 5.0])):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "values.json").write_text(json.dumps(values))
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
    assert "--workload w --seed 7 --seconds 5 --trace 0" in record["commands"]["w seed 7"]
    assert '"w seed 7"' in capsys.readouterr().out


def test_runs_may_write_bytecode(monkeypatch):
    # A set-up import that writes `__pycache__` in one checkout and not in
    # the other would time different work, so no run inherits the switch.
    tool = load_tool()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    handed = {}

    def fake_run(command, **kwargs):
        handed.update(kwargs)
        out = [json.dumps({"counts": {}, "digest": {}}), json.dumps({"metrics": {}})]
        return tool.subprocess.CompletedProcess(command, 0, "\n".join(out), "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    tool.run_once("checkout", "w", 1, 5, 0)
    assert handed["cwd"] == "checkout"
    assert "PYTHONDONTWRITEBYTECODE" not in handed["env"]
    assert handed["env"]["PATH"] == tool.os.environ["PATH"]
