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
        "b3a4d0b0b98a7904b449629c48be66572f4365d6b35337993a4389e4285f66ca",
        "39eaeada99ce4ae43279a62007d18a40e843200c03985fd45ca951dc15e16ca4",
    ),
    "partial_adoption_delayed_tests": (
        replace(BASE, adoption_fraction=0.6, test_delay_days=2),
        "ee0de0d1285f551812f52e316eecf71c4255089bad603a4f5ea8fd55a0a4e90b",
        "48d7b9a65385dd43910ef63b1435b23e1b8904577803c5ebe877fa6f7592df36",
    ),
    # Published contact-derived entries make many more hits (13,416 against
    # 2,869 at full adoption), so the acted-on hit bookkeeping is pinned too.
    "contact_derived": (
        replace(BASE, trace_contact_derived=True),
        "873e090f007bee80d68af26e3630863b87d725953d40c45eb88c6f01c9d67918",
        "967db2d12fa1925134dee8ac951c05013cb8f5e7e0af78f13302226481d23331",
    ),
    # 55 of 60 days are stepped, so the series ends in padding zeros.
    "untraced_early_stop": (
        replace(BASE, adoption_fraction=0.0, p_transmit=0.004, days=60),
        "d351f70fb2d1fab45bacf8dc7fa18d2fe79aadb901b394a60dc0090d98ed0dc9",
        "870f646ce698aaa8415d9fa77e1d084092ad1a1a8658a8c6a3695d7adf83f603",
    ),
    "short_contacts": (
        replace(BASE, duration_mean_ticks=2.0),
        "49a79faa2dfecd46abfef6a960752fc70f0ed17b05b16d3ab0b8c9fc2e9018e3",
        "c61d0a9725e522193d70d38e3968c6299b07a437c1b513487431991efdaafb73",
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
