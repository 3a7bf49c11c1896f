"""Fit a workload's sensitivity to the host's slowdown (see speed.py).

    python3 perfbench/fit_sensitivity.py protocol_day

Reads the result files that `run.py --trace 0` left in `.perfbench_out/`
for the workload (one per seed) and fits, by least squares,

    log(net unit time) = a[seed, unit] + sensitivity * log(slowdown)

where the net time is a unit's time without the probes that ran inside it
and the slowdown is the one measured around it. Every unit of every seed
has its own intercept, so only how the same unit's time moved with the
host's speed from one repetition to the next counts. The fit weights each
unit sample by its time, so long units count as much as they weigh in
`wall_s`; the unweighted fit, which follows the short operations, is
printed beside it. Run a few seeds while the host's speed varies (the
result files record each repetition's median slowdown) and set the
workload's SENSITIVITY to the weighted figure.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys


def fit(samples):
    """samples: {(seed, unit): [(log slowdown, log net ms, weight), ...]}.
    Returns (weighted slope, unweighted slope, samples used)."""
    sxy = sxx = wsxy = wsxx = 0.0
    used = 0
    for points in samples.values():
        if len(points) < 2:
            continue
        used += len(points)
        total = sum(w for _, _, w in points)
        mx = sum(x for x, _, _ in points) / len(points)
        my = sum(y for _, y, _ in points) / len(points)
        wmx = sum(x * w for x, _, w in points) / total
        wmy = sum(y * w for _, y, w in points) / total
        for x, y, w in points:
            sxy += (x - mx) * (y - my)
            sxx += (x - mx) ** 2
            wsxy += w * (x - wmx) * (y - wmy)
            wsxx += w * (x - wmx) ** 2
    if sxx == 0 or wsxx == 0:
        raise SystemExit("the host's speed did not vary across repetitions; "
                         "run more seeds")
    return wsxy / wsxx, sxy / sxx, used


def main(argv) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    workload = argv[0]
    pattern = os.path.join(".perfbench_out", f"result-{workload}-seed*-trace0.json")
    samples = {}
    slowdowns = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            detail = json.load(fh)["detail"]
        for rep in detail["repetitions"]:
            slowdowns.append(rep["slowdown"])
            for unit, (net, slow) in enumerate(zip(rep["net_ms"], rep["unit_slowdown"])):
                if net > 0:
                    samples.setdefault((detail["seed"], unit), []).append(
                        (math.log(slow), math.log(net), net))
    if not samples:
        raise SystemExit(f"no result files match {pattern}")
    weighted, unweighted, used = fit(samples)
    print(json.dumps({
        "workload": workload,
        "sensitivity": round(weighted, 3),
        "unweighted": round(unweighted, 3),
        "unit_samples": used,
        "repetition_slowdowns": [round(s, 2) for s in sorted(slowdowns)],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
