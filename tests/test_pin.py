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
        "9cc32f3ac5e12ab2549b4314ae3abf9e4d58ee2b75e825c0b59c7e33a1eca473",
        "69d71305882265f59c89ecc1020ba08e274e4f63ce51a6f403f90bf5740aeb46",
    ),
    "partial_adoption_delayed_tests": (
        replace(BASE, adoption_fraction=0.6, test_delay_days=2),
        "f1691ddc5fbcdb548fcf64010737b0dd72d29e8a126a841292a2a622667f3552",
        "13a6850bd373f383d1d61ea9cd4a023493bb3164a959b75395893a45d12e3ab1",
    ),
    # Published contact-derived entries make many more hits (13,690 against
    # 3,108 at full adoption), so the acted-on hit bookkeeping is pinned too.
    "contact_derived": (
        replace(BASE, trace_contact_derived=True),
        "71d2b432d49ef737e5928b4b36ac07e9a6d5c0917ecbd4f05cf217918fa708b8",
        "ae0016321706e017a7fc8c6936108e6eaf971a9aeb253eb89b9d8ac2253785c5",
    ),
    # 57 of 60 days are stepped, so the series ends in padding zeros.
    "untraced_early_stop": (
        replace(BASE, adoption_fraction=0.0, p_transmit=0.004, days=60),
        "6994730c9a0fc5612c1e12709062d3fef4da2e1df28ada5ddf0a26df04a89a25",
        "ddc091a6c5e902cde8a073f04d03c7d668c565fc420ffe1c9c54efbc62db13a6",
    ),
    "short_contacts": (
        replace(BASE, duration_mean_ticks=2.0),
        "622f4abbf1eafa798e3276b18033dcc7ce77df7be0eb67710924a5a3ca8e44a8",
        "7e6a7b17e38b4a8039b93aac5eafbba452ebc92f0483df2b29b8821bba49e624",
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
