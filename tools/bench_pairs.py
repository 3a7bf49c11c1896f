#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarize.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --pairs N --seconds 36 [--trace 0] [--out BENCH.json]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` once in each checkout, the parent first on odd pairs and the
change first on even pairs. Every run's last two output lines (its counts
and digest, and its result) are kept. For each metric the summary gives
both sides' medians and inclusive quartiles, and the number of pairs the
change won; a tie counts for neither side. A metric's better direction is
read from the change's BENCHMARK.json, lower when it names none.

The summary is printed, with whether every run was correct and whether all
did the same work (equal counts and digests). With --out, the perfbench
command, the runs and the summary are added to that JSON file, under the
key "W seed S" (with " trace 1" for a traced run), keeping what the file
already holds.
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
    return {"counts": detail["counts"], "digest": detail["digest"], "result": result}


def quartiles(values):
    """Inclusive first and third quartiles, as the BENCH files report them."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, better=None):
    """The summary of `runs`, each `{"pair", "side", "counts", "digest",
    "result"}`: whether every run was correct and all did the same work, and
    per metric both sides' medians and quartiles and the pairs the change
    won."""
    better = better or {}
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    outputs = {json.dumps([run["counts"], run["digest"]], sort_keys=True) for run in runs}
    summary = {"pairs": len(pairs),
               "all_correct": all(run["result"]["correct"] for run in runs),
               "same_counts_and_digest": len(outputs) == 1}
    if not pairs:
        return summary
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        sign = -1 if better.get(name) == "higher" else 1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "parent_median": round(statistics.median(values["parent"]), 4),
            "parent_q1_q3": [round(q, 4) for q in quartiles(values["parent"])],
            "change_median": round(statistics.median(values["change"]), 4),
            "change_q1_q3": [round(q, 4) for q in quartiles(values["change"])],
            "change_wins": wins,
        }
    return summary


def better_directions(checkout):
    """`{metric: "lower" | "higher"}` from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


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


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], args.workload, args.seed, args.seconds,
                           args.trace)
            runs.append({"pair": pair, "seed": args.seed, "workload": args.workload,
                         "trace": args.trace, "side": side, "first": order[0], **run})
            print(json.dumps(runs[-1]), flush=True)
    key = f"{args.workload} seed {args.seed}" + (" trace 1" if args.trace else "")
    summary = summarize(runs, better_directions(args.change))
    print(json.dumps({key: summary}, indent=1))
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                record = json.load(fh)
        record.setdefault("commands", {})[key] = (
            f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
            f"--seconds {args.seconds} --trace {args.trace}, in {args.pairs} pairs, "
            "odd pairs parent first, even pairs change first")
        record.setdefault("summary", {})[key] = summary
        record.setdefault("runs", []).extend(runs)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
