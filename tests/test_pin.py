"""Behaviour pin: SHA-256 of `metrics.csv` and `events.log` for six small
seeded scenarios.

For a given (config, seed) these two files are the simulator's contract, so
a refactor that is meant to keep behaviour must leave both hashes alone. A
change that alters them on purpose (for example by removing an RNG draw)
re-pins here and says why in CHANGES.md.

The short retention window makes log pruning, case erasure and the daily
bookkeeping around them run inside a 30-day scenario. The last three pins
cover what the first three never reach: a run with no device, which
publishes unsigned and stops early; contacts short enough (a mean of at most
three ticks, p >= 1/3) that numpy's `geometric` draws durations by its search
rather than its inversion, a regime inside numpy and not a branch of the
sampler; and one agent, which draws no events.
"""

import hashlib
import inspect
from dataclasses import replace

import pytest

from tracenet.simnet import ScenarioConfig, World, run

from linetrace import lines_run, missed_lines

BASE = ScenarioConfig(population=120, days=30, seed=3, index_cases=2,
                      p_transmit=0.01, retention_days=7)

PINS = {
    "full_adoption": (
        BASE,
        "e7294733763a73f3052de2cdc482237b3343b05591253ad13e63e0620a0b363d",
        "656279757708b66a5ed1e3d5790065ff4a8185a54a47e0dbe02eea4a09d7829c",
    ),
    "partial_adoption_delayed_tests": (
        replace(BASE, adoption_fraction=0.6, test_delay_days=2),
        "33fceb32c2d966a6daa457ba054c9923f3b6696881bc6e1bcc33e084a6b66a0e",
        "9fcc15904f50b505b7d86adb29f8610c634fec71a8ac2fabbedc000864345561",
    ),
    # Published contact-derived entries make many more hits (13,979 against
    # 2,874 at full adoption), so the acted-on hit bookkeeping is pinned too.
    "contact_derived": (
        replace(BASE, trace_contact_derived=True),
        "bc4f8364467d44284363a0e7d67c8efdde52a924aa8860b5968f315f862a7262",
        "6d672788b871f59250cd9e12f9a9e46b6a152e3ee3cb3549d1a4413e25083ceb",
    ),
    # 57 of 60 days are stepped, so the series ends in padding zeros.
    "untraced_early_stop": (
        replace(BASE, adoption_fraction=0.0, p_transmit=0.004, days=60),
        "6994730c9a0fc5612c1e12709062d3fef4da2e1df28ada5ddf0a26df04a89a25",
        "ddc091a6c5e902cde8a073f04d03c7d668c565fc420ffe1c9c54efbc62db13a6",
    ),
    "short_contacts": (
        replace(BASE, duration_mean_ticks=2.0),
        "c27f29a0a0af2f6609cfd470199792c94783875af84d6a86c70f6dadd22152bc",
        "62317d390e72e9462a49ce3f39fd32b50314c62a90c14e3e078702d794943165",
    ),
    "single_agent": (
        replace(BASE, population=1),
        "c0ece39709a2b05b4751fa0bb084f3fbf24d4834eb5144ab56ccfb1adf106715",
        "f117a898288f21d65e540ebce28ed929322394dccad79b924057a70a157afc70",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_match_pinned_hashes(name):
    config, metrics_sha, events_sha = PINS[name]
    report = run(config, record_events=True)
    # The same text `tracenet simulate` writes to metrics.csv and events.log.
    assert _sha256(report.to_csv()) == metrics_sha
    assert _sha256("".join(line + "\n" for line in report.events)) == events_sha


def test_untraced_pin_stops_early():
    config = PINS["untraced_early_stop"][0]
    assert len(run(config, record_events=True).events) < config.days


def test_pins_run_every_line_of_the_day():
    """Together the six pins execute every line of every `World` method but
    `__init__`, so a rewrite of the day cannot hide a branch they never take.
    A line no pin reaches is either dead or needs a seventh pin."""
    codes = [fn.__code__ for name, fn in vars(World).items()
             if inspect.isfunction(fn) and name != "__init__"]

    def run_pins():
        for config, _, _ in PINS.values():
            run(config, record_events=True)

    missed = missed_lines(lines_run(run_pins, codes))
    assert not missed, missed
