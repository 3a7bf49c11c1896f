#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarize.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --pairs N --seconds 36 [--trace 0] [--out BENCH.json]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` once in each checkout, the parent first on odd pairs and the
change first on even pairs. Every run's last two output lines (its counts
and digest, and its result) are kept, with its raw set-up time: the median
`raw_setup_s` over the run's repetitions, read from the checkout's
`.perfbench_out/result-W-seedS-traceX.json`. That is the set-up from spawn,
unscaled, summarized as `raw_setup_s` beside the scaled `setup_s`, so work
moved between the imports and the workload build shows as what it is.

For each metric the summary gives both sides' medians and inclusive
quartiles, and the number of pairs the change won; a tie counts for neither
side. A metric's better direction and bound are read from the change's
BENCHMARK.json; the direction is lower when it names none. Its
"meets_claim_bar" is true when the change won at least nine tenths of the
pairs and its median beats the parent's by more than the parent's quartile
spread: the bar a claimed gain must clear. Its "within_bound" is true when
the change's median is no worse than the parent's, in the better direction,
by more than the bound times the parent's median: the bar every end-to-end
metric must clear. It is None for a metric with no bound.

The summary is printed, with whether every run was correct and, per side,
whether that side's runs all did the same work (equal counts and digests)
and, where they did, that side's counts; `sides_match` says whether the two
sides did the same work as each other, which a change that moves outputs on
purpose does not. With --out, the perfbench command, the runs and the
summary are added to that JSON file, under the key "W seed S" (with
" trace 1" for a traced run), keeping what the file already holds. The
file is rewritten after every run, through a temporary file and a rename,
so a failed run keeps the runs before it and an interrupted write leaves
the previous file whole.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`: `{"counts", "digest", "result"}`.
    The run may write bytecode whatever this process's environment says, so
    that both checkouts' set-up imports read their own `__pycache__` alike."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"counts": detail["counts"], "digest": detail["digest"], "result": result,
            "raw_setup_s": raw_setup(checkout, workload, seed, trace)}


def raw_setup(checkout, workload, seed, trace):
    """The median `raw_setup_s` over the repetitions of the run that last
    wrote its result file in `checkout`."""
    path = os.path.join(checkout, ".perfbench_out",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        repetitions = json.load(fh)["detail"]["repetitions"]
    return statistics.median(rep["raw_setup_s"] for rep in repetitions)


def quartiles(values):
    """Inclusive first and third quartiles, as the BENCH files report them."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, better=None, bounds=None):
    """The summary of `runs`, each `{"pair", "side", "counts", "digest",
    "result"}`: whether every run was correct, whether each side's runs and
    then both sides did the same work, each side's counts (None where its
    runs differ or it has none), and per metric both sides' medians and
    quartiles, the pairs the change won, whether that meets the claim bar
    and whether the change's median is within the metric's bound in
    `bounds`."""
    better, bounds = better or {}, bounds or {}
    by_pair = {}
    for run in runs:
        metrics = dict(run["result"]["metrics"])
        if "raw_setup_s" in run:
            metrics["raw_setup_s"] = {"value": run["raw_setup_s"]}
        by_pair.setdefault(run["pair"], {})[run["side"]] = metrics
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    outputs = {side: set() for side in SIDES}
    for run in runs:
        outputs[run["side"]].add(json.dumps([run["counts"], run["digest"]], sort_keys=True))
    summary = {"pairs": len(pairs),
               "all_correct": all(run["result"]["correct"] for run in runs),
               "same_counts_and_digest": {side: len(outputs[side]) <= 1 for side in SIDES},
               "sides_match": len(outputs["parent"] | outputs["change"]) == 1,
               "counts": {side: json.loads(next(iter(outputs[side])))[0]
                          if len(outputs[side]) == 1 else None for side in SIDES}}
    if not pairs:
        return summary
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        sign = -1 if better.get(name) == "higher" else 1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        medians = {side: statistics.median(values[side]) for side in SIDES}
        q1, q3 = quartiles(values["parent"])
        bound = bounds.get(name)
        summary[name] = {
            "parent_median": round(medians["parent"], 4),
            "parent_q1_q3": [round(q1, 4), round(q3, 4)],
            "change_median": round(medians["change"], 4),
            "change_q1_q3": [round(q, 4) for q in quartiles(values["change"])],
            "change_wins": wins,
            "meets_claim_bar": (10 * wins >= 9 * len(pairs)
                                and sign * (medians["parent"] - medians["change"]) > q3 - q1),
            "within_bound": None if bound is None else (
                sign * (medians["change"] - medians["parent"]) <= bound * medians["parent"]),
        }
    return summary


def better_directions(checkout):
    """`({metric: "lower" | "higher"}, {metric: bound})` from the checkout's
    BENCHMARK.json; a metric with no bound is left out of the second."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as fh:
        spec = json.load(fh)
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in metrics if "bound" in m})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to add the runs and summary to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def write_json(path, record):
    """Replace the file at `path` with `record` as JSON, whole or not at all."""
    temp = f"{path}.tmp"
    with open(temp, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    os.replace(temp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    key = f"{args.workload} seed {args.seed}" + (" trace 1" if args.trace else "")
    better, bounds = better_directions(args.change)
    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("commands", {})[key] = (
        f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds} --trace {args.trace}, in {args.pairs} pairs, "
        "odd pairs parent first, even pairs change first")
    kept = record.get("runs", [])
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], args.workload, args.seed, args.seconds,
                           args.trace)
            runs.append({"pair": pair, "seed": args.seed, "workload": args.workload,
                         "trace": args.trace, "side": side, "first": order[0], **run})
            print(json.dumps(runs[-1]), flush=True)
            summary = summarize(runs, better, bounds)
            if args.out:
                record.setdefault("summary", {})[key] = summary
                record["runs"] = kept + runs
                write_json(args.out, record)
    print(json.dumps({key: summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
