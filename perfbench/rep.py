"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED MODE SMOKE SPAWNED_NS SCRATCH

`run.py` starts this script once per repetition. MODE is `plain` (timed
body, untraced, its times scaled to a reference host speed as speed.py
describes) or `traced` (timed body under the tracer, raw times). SPAWNED_NS
is the parent's CLOCK_MONOTONIC reading just before the spawn, so `setup_s`
covers interpreter start, `import tracenet` and building the workload's
start state. Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import cryptography
import numpy

import tracenet
import workloads
from speed import Speedometer
from tracer import Tracer


def main(argv) -> int:
    workload, seed, mode, smoke, spawned_ns, scratch = argv
    # The untraced body is timed against the host's speed (speed.py); the
    # traced one is not, so that no probe lands inside a span.
    meter = Speedometer() if mode == "plain" else None
    with meter or contextlib.nullcontext():
        begun = time.perf_counter_ns()
        wl = workloads.WORKLOADS[workload](int(seed), smoke == "1", scratch)
        ready = time.perf_counter_ns()
        raw_setup_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(spawned_ns)
        if mode == "traced":
            tracer = Tracer()
            clock = workloads.Clock(tracer)
            with tracer:
                outcome = wl.run(clock)
        else:
            tracer = None
            clock = workloads.Clock()
            outcome = wl.run(clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if meter is None:
        setup_s = raw_setup_ns / 1e9
        net_ms = unit_ms = outcome.unit_ms
        unit_slowdown = [1.0] * len(unit_ms)
    else:
        # Interpreter start and imports ran before the meter did; they are
        # scaled by the slowdown measured over the rest of the set-up.
        setup_s = ((raw_setup_ns - meter.probe_ns_between(begun, ready))
                   / meter.slowdown(begun, ready) ** wl.SENSITIVITY / 1e9)
        net_ms = [meter.net_ns(start, end) / 1e6 for start, end in clock.bounds]
        unit_slowdown = [meter.slowdown(start, end) for start, end in clock.bounds]
        unit_ms = [net / slow ** wl.SENSITIVITY
                   for net, slow in zip(net_ms, unit_slowdown)]

    layers = dict(outcome.layers)
    if tracer is not None:
        layers.update(tracer.layer_metrics(clock.wall_s))
        layers["contact_log.bytes_per_record"] = workloads.bytes_per_record(
            wl.record_sample())
        tracer.write(scratch, f"spans-{workload}")

    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_ns / 1e9,
        "wall_s": sum(unit_ms) / 1e3,
        "raw_wall_s": clock.wall_s,
        "net_wall_s": sum(net_ms) / 1e3,
        "slowdown": statistics.median(unit_slowdown),
        "peak_rss_mb": peak_rss_mb,
        "unit_ms": unit_ms,
        "net_ms": net_ms,
        "unit_slowdown": unit_slowdown,
        "op_units": outcome.op_units,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "counts": outcome.counts,
        "digest": outcome.digest,
        "layers": layers,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "tracenet": os.path.dirname(tracenet.__file__),
        },
    }))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip freeing a heap of up to ~800 MB object by object at exit: it
    # costs about a second per repetition and measures nothing.
    os._exit(code)
