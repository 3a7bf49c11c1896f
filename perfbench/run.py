"""tracenet benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload traced_1k --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from `src/` there.
Each repetition runs in a fresh single-threaded interpreter (`rep.py`).

--trace 0 runs the workload several times on the same seed. The body is
timed as a fixed sequence of units (each operation, and the work between
operations). The shared host this was tuned on runs everything about 1.6 to
2 times slower for stretches of up to a minute or more, so each unit's time
is scaled to a reference host speed measured while it ran (speed.py), and
each unit counts at its median across the repetitions. `wall_s` sums the
units; `op_p50_ms` and `op_p99_ms` are percentiles over the operations.
`setup_s` is the median of the repetitions' set-up times, scaled the same
way. The raw times are kept in the result file.
--trace 1 runs the workload once untraced and once traced on the same
seed, checks that both did identical work, and reports the per-layer
metrics of the traced run.

Every run checks its outputs, and that every repetition of the same seed
did identical work. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Full results, and the traced run's spans, go to `.perfbench_out/`.

Measurement is process-local: no cache drop, no CPU pinning, no cgroup or
kernel setting is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (purpose, seconds one repetition takes end to end: spawn,
# set-up, timed body, checks). A run makes round(--seconds / that)
# repetitions, at least two, so the amount of work is fixed by --seconds,
# not by how fast the code is, and a run takes about --seconds.
WORKLOADS = {
    "traced_1k": (
        "criterion-10 traced scenario, 1k agents, 30 fixed days: the write-heavy "
        "beacon/contact-log path and the events.log write-out", 12.0),
    "protocol_day": (
        "300 devices each check 7 signed lists from bytes against a 21-day log: "
        "list codec, verify, matching and casework at population scale", 10.0),
    "calib_probe": (
        "one calibration probe, 20 untraced 10k-agent runs: numpy contact sampling "
        "with no device, so the tracing stack is bypassed", 8.0),
}
SMOKE_NOMINAL_S = 0.5
# A run starts no further repetition once it expects to pass --seconds by
# more than this share (a host far slower than usual), as long as it has
# two: the total time of many runs stays bounded.
OVERRUN = 0.25
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept out of tuning; for checking later claims

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

PER_LAYER = {
    "ident.codec_calls": "count",
    "ident.codec_ms": "ms",
    "ident.distance_class_ms": "ms",
    "ident.rotate_ms": "ms",
    "contact_log.observe_span_calls": "count",
    "contact_log.observe_span_ms": "ms",
    "contact_log.prune_calls": "count",
    "contact_log.prune_ms": "ms",
    "contact_log.export_history_ms": "ms",
    "contact_log.live_records": "count",
    "contact_log.bytes_per_record": "B",
    "authority.register_calls": "count",
    "authority.register_ms": "ms",
    "authority.stale_rejections": "count",
    "authority.publish_calls": "count",
    "authority.publish_ms": "ms",
    "authority.list_entries_mean": "count",
    "authority.serialize_ms": "ms",
    "authority.erase_ms": "ms",
    "authority.deserialize_ms": "ms",
    "authority.verify_calls": "count",
    "authority.verify_ms": "ms",
    "authority.tamper_checks": "count",
    "authority.tamper_reject_ratio": "ratio",
    "matching.build_index_ms": "ms",
    "matching.match_calls": "count",
    "matching.match_ms": "ms",
    "matching.records_scanned": "count",
    "matching.hits": "count",
    "matching.hit_ratio": "ratio",
    "casework.on_hits_ms": "ms",
    "casework.step_calls": "count",
    "casework.step_ms": "ms",
    "casework.categorize_calls": "count",
    "casework.categorize_ms": "ms",
    "casework.mailbox_codec_calls": "count",
    "casework.mailbox_codec_ms": "ms",
    "casework.audited_noops": "count",
    "casework.test_order_ratio": "ratio",
    "simnet.step_day_calls": "count",
    "simnet.step_day_self_ms": "ms",
    "simnet.run_self_ms": "ms",
    "simnet.day_p50_ms": "ms",
    "simnet.day_max_ms": "ms",
    "simnet.run_calls": "count",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "count",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.spans": "count",
    "error_rate": "ratio",
    "op_samples": "count",
    "work.list_entries": "count",
    "work.hits": "count",
    "work.inquiries": "count",
    "work.tests_used": "count",
}

DEADLINE_S = 170.0  # the whole run, every repetition included


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_checkout(root: str, env: dict) -> None:
    """The package must come from this checkout's `src/`, never from an
    installed copy. Importing it once also compiles its bytecode, so the
    first repetition's set-up is not charged for that."""
    package = os.path.join(root, "src", "tracenet")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no tracenet sources at {package}; run from a checkout root")
    try:
        probe = subprocess.run(
            [sys.executable, "-c", "import tracenet; print(tracenet.__file__)"],
            env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("import tracenet timed out") from exc
    if probe.returncode != 0:
        raise BenchError(f"import tracenet failed:\n{probe.stderr}")
    found = os.path.dirname(os.path.realpath(probe.stdout.strip()))
    if found != os.path.realpath(package):
        raise BenchError(f"tracenet imported from {found}, expected {package}")


def run_rep(args, mode, env, scratch, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before all repetitions ran")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), args.workload,
           str(args.seed), mode, "1" if args.smoke else "0",
           str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), scratch]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - started
    return rep


def run_reps(args, planned, env, scratch, deadline):
    """The untraced repetitions of one run: `planned` of them, unless the
    host is so slow that the run would overrun --seconds."""
    budget = args.seconds * (1 + OVERRUN)
    started = time.monotonic()
    reps = []
    while len(reps) < planned:
        spent = time.monotonic() - started
        if len(reps) >= 2 and spent + spent / len(reps) > budget:
            break
        reps.append(run_rep(args, "plain", env, scratch, deadline))
    return reps


def end_to_end(reps, problems) -> dict:
    units = list(zip(*(r["unit_ms"] for r in reps)))
    if any(len(r["unit_ms"]) != len(units) or r["op_units"] != reps[0]["op_units"]
           for r in reps):
        problems.append("repetitions of one seed timed different sequences of units")
    typical = [statistics.median(unit) for unit in units]
    ops = [typical[j] for j in reps[0]["op_units"] if j < len(typical)]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": sum(typical) / 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "op_p50_ms": statistics.median(ops),
        "op_p99_ms": statistics.quantiles(ops, n=100, method="inclusive")[98],
    }


def per_layer(plain, traced, problems) -> dict:
    """Per-layer metrics of the traced repetition. `main` has already checked
    that it did exactly the work the untraced one did."""
    layers = traced["layers"]
    if layers["contact_log.observe_span_calls"] != traced["counts"]["spans_logged"]:
        problems.append("traced observe_span calls != spans logged")
    m = {name: layers.get(name, 0) for name in PER_LAYER}
    m["trace.overhead_s"] = traced["wall_s"] - plain["net_wall_s"]
    m["error_rate"] = traced["failed"] / traced["attempted"]
    m["op_samples"] = len(traced["op_units"])
    for name in ("list_entries", "hits", "inquiries", "tests_used"):
        m["work." + name] = traced["counts"][name]
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = os.getcwd()
    scratch = os.path.join(root, ".perfbench_out")
    env = child_env(root)
    purpose, nominal_s = WORKLOADS[args.workload]
    if args.smoke:
        nominal_s = SMOKE_NOMINAL_S
    try:
        check_checkout(root, env)
        os.makedirs(scratch, exist_ok=True)
        if args.trace:
            reps = [run_rep(args, "plain", env, scratch, deadline),
                    run_rep(args, "traced", env, scratch, deadline)]
        else:
            reps = run_reps(args, max(2, round(args.seconds / nominal_s)),
                            env, scratch, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [e for r in reps for e in r["errors"]]
    for r in reps[1:]:
        if (r["counts"], r["digest"]) != (reps[0]["counts"], reps[0]["digest"]):
            problems.append("repetitions of one seed disagree on counts or digest")
    if args.trace:
        values, units = per_layer(reps[0], reps[1], problems), PER_LAYER
        attempted, failed = reps[1]["attempted"], reps[1]["failed"]
    else:
        values, units = end_to_end(reps, problems), END_TO_END
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)

    detail = {
        "workload": args.workload, "purpose": purpose, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "smoke": args.smoke,
        "repetitions": [{k: r[k] for k in ("elapsed_s", "setup_s", "raw_setup_s",
                                            "wall_s", "raw_wall_s", "net_wall_s",
                                            "slowdown", "peak_rss_mb", "attempted",
                                            "failed", "counts", "digest", "net_ms",
                                            "unit_slowdown")}
                        for r in reps],
        "problems": problems, "env": reps[0]["env"],
        "measurement": "process-local; no cache drop, no CPU pinning, "
                       "no cgroup or kernel change",
        "elapsed_s": time.monotonic() - started,
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(scratch, stem + ".json"), "w") as fh:
        json.dump({"detail": detail, "metrics": values}, fh, indent=1)

    for problem in problems:
        print(f"problem: {problem}")
    for name, value in values.items():
        print(f"{name:34s} {value:>16.6f} {units[name]}")
    print(json.dumps({"detail": {k: detail[k] for k in
                                 ("workload", "seed", "env")},
                      "counts": reps[-1]["counts"], "digest": reps[-1]["digest"]}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
