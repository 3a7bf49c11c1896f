import gc
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracenet import simnet
from tracenet.authority import deserialize_list, serialize_list
from tracenet.casework import CaseState
from tracenet.contact_log import TICKS_PER_DAY, ContactLog
from tracenet.ident import (
    RDI_BYTES,
    DailyIdentifier,
    DistanceClass,
    decode_beacon,
    encode_beacon,
    estimate_distance_class,
)
from tracenet.simnet import (
    InsufficientData,
    InvalidConfig,
    MetricsReport,
    ScenarioConfig,
    World,
    calibrate_p_transmit,
    config_from_file,
    estimate_R_effective,
    infection_probability,
    run,
)

FAST = ScenarioConfig(population=120, days=15, seed=3, index_cases=2,
                      p_transmit=0.02)


def event_lines(events):
    """The event log's lines, from its one text per stepped day."""
    return [line for text in events for line in text.split("\n")]


def test_config_validation_names_offending_fields():
    bad = ScenarioConfig(population=-1, adoption_fraction=1.5, near_fraction=0.9)
    with pytest.raises(InvalidConfig) as err:
        bad.validate()
    text = str(err.value)
    assert "population" in text
    assert "adoption_fraction" in text
    assert "mix" in text


def test_config_from_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# demo scenario\n"
        "population = 50\n"
        "days=10\n"
        "seed=4  # inline comment\n"
        "adoption_fraction=0.5\n"
        "categories_traced=cat1\n"
        "trace_contact_derived = yes\n"
    )
    cfg = config_from_file(path)
    assert cfg.population == 50
    assert cfg.days == 10
    assert cfg.seed == 4
    assert cfg.categories_traced == "cat1"
    assert cfg.trace_contact_derived is True


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("velocity=9\n")
    with pytest.raises(InvalidConfig):
        config_from_file(path)


def test_empty_world_runs_to_completion():
    report = run(ScenarioConfig(population=0, days=5, index_cases=0))
    assert report.new_infections == [0] * 5
    assert report.attack_rate == 0.0


def test_zero_days_yields_empty_series():
    report = run(replace(FAST, days=0))
    assert report.new_infections == []


def test_full_adoption_flags_every_agent():
    world = World(replace(FAST, adoption_fraction=1.0))
    assert world.adopter.all()
    assert len(world.devices) == FAST.population


def test_identical_seed_gives_identical_report_and_events():
    a = run(FAST, record_events=True)
    b = run(FAST, record_events=True)
    assert a.to_csv() == b.to_csv()
    assert a.events == b.events


def test_different_seed_gives_different_run():
    a = run(FAST, seed=1, record_events=True)
    b = run(FAST, seed=2, record_events=True)
    assert a.events != b.events


def test_no_infected_means_no_transmission_or_publication():
    report = run(replace(FAST, index_cases=0))
    assert sum(report.new_infections) == 0
    assert sum(report.list_size) == 0
    assert sum(report.tests_used) == 0


def test_transmission_probability_closed_form():
    # 1 - 0.99^30 = 0.26030
    assert infection_probability(30, 0, 0.01) == pytest.approx(0.26030, abs=1e-4)
    assert infection_probability(0, 60, 0.01) == pytest.approx(0.26030, abs=1e-4)
    assert infection_probability(0, 0, 0.5) == 0.0


def test_transmit_degenerate_probabilities():
    # Far ticks carry no exposure: 500 far-only ticks are 0 near, 0 mid.
    assert infection_probability(10, 0, 0.0) == 0.0
    assert infection_probability(10, 0, 1.0) == 1.0
    assert infection_probability(0, 0, 1.0) == 0.0


def test_population_conserved_every_day():
    world = World(replace(FAST, days=12))
    for _ in range(12):
        world.step_day()
        states, counts = np.unique(world.health, return_counts=True)
        assert counts.sum() == FAST.population


def test_no_agent_returns_to_susceptible():
    world = World(FAST)
    ever_infected = set()
    for _ in range(FAST.days):
        world.step_day()
        ever_infected |= set(np.flatnonzero(world.day_infected >= 0))
        for agent in ever_infected:
            assert world.health[agent] != simnet.SUSCEPTIBLE or \
                world.day_infected[agent] >= 0
            assert world.health[agent] in (
                simnet.EXPOSED, simnet.INFECTIOUS,
                simnet.SYMPTOMATIC, simnet.REMOVED,
            )


def reference_progress(world, day):
    """`World._progress` as first written: masks over every agent. Moves
    `world.health` on and returns the newly symptomatic agents."""
    cfg = world.config
    health = world.health
    infected = world.day_infected >= 0
    t = day - world.day_infected
    to_removed = infected & (health != simnet.REMOVED) & (t >= cfg.course_days)
    health[to_removed] = simnet.REMOVED
    to_infectious = (health == simnet.EXPOSED) & (t >= cfg.latency_days)
    health[to_infectious] = simnet.INFECTIOUS
    newly_symptomatic = ((health == simnet.INFECTIOUS)
                         & (t >= cfg.symptom_onset_days) & ~world.asymptomatic)
    health[newly_symptomatic] = simnet.SYMPTOMATIC
    return np.flatnonzero(newly_symptomatic)


@st.composite
def progression_states(draw):
    """A config with any order of latency, onset and course, a day, and per
    agent a health code, an infection day and the asymptomatic flag. As in
    every run, a susceptible agent has no infection day (-1); an infected
    code may have none either, as tests that write `health` leave it."""
    n = draw(st.integers(1, 40))
    day = draw(st.integers(0, 20))
    cfg = ScenarioConfig(population=n, index_cases=0, adoption_fraction=0.0,
                         latency_days=draw(st.integers(0, 8)),
                         symptom_onset_days=draw(st.integers(0, 8)),
                         course_days=draw(st.integers(0, 12)))
    health = draw(st.lists(st.integers(simnet.SUSCEPTIBLE, simnet.REMOVED),
                           min_size=n, max_size=n))
    since = [-1 if code == simnet.SUSCEPTIBLE else draw(st.integers(-1, day))
             for code in health]
    asymptomatic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return cfg, day, health, since, asymptomatic


@settings(max_examples=200, deadline=None)
@example(state=(ScenarioConfig(population=6, index_cases=0, adoption_fraction=0.0,
                               latency_days=4, symptom_onset_days=2, course_days=3),
                5, [1, 1, 2, 3, 4, 0], [2, -1, 1, 0, 3, -1], [False] * 6))
@example(state=(ScenarioConfig(population=4, index_cases=0, adoption_fraction=0.0,
                               latency_days=0, symptom_onset_days=0, course_days=0),
                0, [1, 1, 2, 0], [0, -1, 0, -1], [False, True, False, False]))
@given(state=progression_states())
def test_progression_over_the_infected_matches_the_population_wide_step(state):
    cfg, day, health, since, asymptomatic = state
    world = World(cfg)
    world.health[:] = health
    world.day_infected[:] = since
    world.asymptomatic[:] = asymptomatic
    reference = SimpleNamespace(config=cfg, health=world.health.copy(),
                                day_infected=world.day_infected.copy(),
                                asymptomatic=world.asymptomatic.copy())
    sick, newly_symptomatic = world._progress(day)
    want = reference_progress(reference, day)
    assert np.array_equal(world.health, reference.health)
    assert np.array_equal(newly_symptomatic, want)  # ascending, as `_self_present` reads them
    assert np.array_equal(sick, np.flatnonzero(
        (world.health >= simnet.EXPOSED) & (world.health <= simnet.SYMPTOMATIC)))


def test_quarantine_reduces_contact_rate():
    # At full adoption every drawn event matters, so the sampler returns
    # each one the leak keeps.
    cfg = ScenarioConfig(population=400, days=1, seed=8, index_cases=0,
                         contacts_per_day=10.0, quarantine_leak=0.05,
                         adoption_fraction=1.0)
    world = World(cfg)
    world.quarantined[:200] = True
    src, dst, *_ = world._sample_events()
    quarantined_initiated = np.count_nonzero(src < 200)
    free_initiated = np.count_nonzero(src >= 200)
    # Expected ~100 vs ~2000 events; allow generous Monte-Carlo slack.
    assert quarantined_initiated < free_initiated * 0.15


def reference_sample_events(world):
    """The contact sampler as first written, kept deliberately dumb: numpy's
    own `choice` and `geometric`, and a `keep` mask applied to every array."""
    cfg = world.config
    n = cfg.population
    if n < 2 or cfg.contacts_per_day == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    lam = np.where(world.quarantined,
                   cfg.contacts_per_day * cfg.quarantine_leak,
                   cfg.contacts_per_day)
    counts = world.nprng.poisson(lam)
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    m = len(src)
    dst = world.nprng.integers(0, n, m, dtype=np.int64)
    clash = dst == src
    dst[clash] = (dst[clash] + 1) % n
    keep = world.nprng.random(m) < np.where(
        world.quarantined[dst], cfg.quarantine_leak, 1.0
    )
    dur = world.nprng.geometric(1.0 / cfg.duration_mean_ticks, m).astype(np.int64)
    np.minimum(dur, simnet.TICKS_PER_DAY, out=dur)
    cls = world.nprng.choice(
        3, m, p=[cfg.near_fraction, cfg.mid_fraction, cfg.far_fraction]
    )
    start = world.nprng.integers(0, simnet.TICKS_PER_DAY, m, dtype=np.int64)
    start = np.minimum(start, simnet.TICKS_PER_DAY - dur)
    return src[keep], dst[keep], cls[keep], start[keep], dur[keep]


sampler_configs = st.builds(
    lambda mix, **fields: ScenarioConfig(
        near_fraction=mix[0], mid_fraction=mix[1], far_fraction=mix[2],
        index_cases=0, **fields),
    mix=st.sampled_from([(0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]),
    population=st.sampled_from([0, 1, 2, 50, 400]),
    seed=st.integers(0, 2**16),
    contacts_per_day=st.sampled_from([0.0, 3.0, 8.0]),
    quarantine_leak=st.sampled_from([0.0, 0.05, 1.0]),
)


# numpy's geometric switches from a search to an inversion below p = 1/3.
@pytest.mark.parametrize("duration_mean_ticks", [1, 1.5, 3.0, 3.0001, 12, 300])
@settings(max_examples=20, deadline=None)
@example(cfg=ScenarioConfig(population=400, seed=5, index_cases=0,
                            near_fraction=0.0, mid_fraction=0.5,
                            far_fraction=0.5),
         quarantined_share=0.5)
@given(cfg=sampler_configs, quarantined_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_sample_events_matches_reference_stream(duration_mean_ticks, cfg,
                                                quarantined_share):
    # At full adoption, on equal seeds, the sampler returns exactly the
    # reference's arrays, day after day, and leaves the generator where the
    # reference leaves it. The first day has every agent quarantined and the
    # second none.
    cfg = replace(cfg, duration_mean_ticks=duration_mean_ticks)
    n = cfg.population
    masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool)] + [
        np.random.default_rng(day).random(n) < quarantined_share for day in range(3)]
    world, reference = World(cfg), World(cfg)
    for mask in masks:
        world.quarantined[:] = mask
        reference.quarantined[:] = mask
        got = world._sample_events()
        want = reference_sample_events(reference)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)
        assert (world.nprng.bit_generator.state
                == reference.nprng.bit_generator.state)


def test_sample_events_clips_durations_longer_than_a_day():
    # At a mean this long every inverted exponential draw is far past the
    # int64 range, so the clip to one day must come before the int cast.
    cfg = ScenarioConfig(population=50, seed=3, index_cases=0,
                         duration_mean_ticks=1e300)
    src, _, _, start, dur, _ = World(cfg)._sample_events()
    assert len(src) > 0
    assert ((dur >= 1) & (dur <= simnet.TICKS_PER_DAY)).all()
    assert (start >= 0).all()
    assert (start + dur <= simnet.TICKS_PER_DAY).all()


def _mattering(world, src, dst):
    """Which of the events `(src, dst)` can transmit, and which matter: both
    partners are adopters, or the event can transmit."""
    role = simnet.TRANSMISSION_ROLE[world.health]
    transmit = (role[src] ^ role[dst]) == 3
    return transmit, transmit | (world.adopter[src] & world.adopter[dst])


def _set_health(world, seed):
    """A fixed mix of health states, infectious agents among them."""
    codes = np.random.default_rng(seed).choice(
        [simnet.SUSCEPTIBLE, simnet.EXPOSED, simnet.INFECTIOUS,
         simnet.SYMPTOMATIC, simnet.REMOVED],
        world.config.population, p=[0.8, 0.05, 0.05, 0.05, 0.05])
    world.health[:] = codes


@settings(max_examples=40, deadline=None)
@given(cfg=st.builds(
    ScenarioConfig, index_cases=st.just(0),
    population=st.sampled_from([2, 3, 50, 400]),
    seed=st.integers(0, 2**16),
    contacts_per_day=st.sampled_from([3.0, 8.0]),
    duration_mean_ticks=st.sampled_from([2.0, 12.0])))
def test_sampler_returns_the_reference_partners_that_matter(cfg):
    # At full adoption every agent is active, so with infectious agents
    # among them the sampler still draws only the active senders' events:
    # on equal seeds it returns exactly the reference's events, every one of
    # which matters, and draws nothing for incoming events.
    world, reference = World(cfg), World(cfg)
    _set_health(world, cfg.seed)
    _set_health(reference, cfg.seed)
    src, dst, _, _, _, transmit = world._sample_events()
    want_src, want_dst, *_ = reference_sample_events(reference)
    can_transmit, matters = _mattering(reference, want_src, want_dst)
    assert matters.all()
    assert np.array_equal(src, want_src)
    assert np.array_equal(dst, want_dst)
    assert np.array_equal(transmit, can_transmit)
    assert world.nprng.bit_generator.state == reference.nprng.bit_generator.state


def population_sum_sample_events(world):
    """`World._sample_events` as it was when part 2 picked each sender by a
    search over the running sum of every agent's part-2 rate, zero for an
    agent that is no part-2 sender. Durations by inversion only (p < 1/3)."""
    cfg = world.config
    n = cfg.population
    rng = world.nprng
    lam = np.where(world.quarantined, cfg.contacts_per_day * cfg.quarantine_leak,
                   cfg.contacts_per_day)
    role = simnet.TRANSMISSION_ROLE[world.health]
    infectious = role == 1
    senders = np.flatnonzero(world.adopter | infectious)
    src = np.repeat(senders, rng.poisson(lam[senders]))
    dst = rng.integers(0, n, len(src), dtype=np.int64)
    clash = dst == src
    dst[clash] = (dst[clash] + 1) % n
    transmit = (role[src] ^ role[dst]) == 3
    matters = transmit | (world.adopter[src] & world.adopter[dst])
    src, dst, transmit = src[matters], dst[matters], transmit[matters]
    receivers = np.flatnonzero(infectious)
    if len(receivers):
        weight = np.where((role == 2) & ~world.adopter, lam, 0.0)
        running = np.cumsum(weight)
        before = (receivers - 1) % n
        mass = weight[before] + running[-1]
        incoming = rng.poisson(mass / n)
        pick = rng.random(int(incoming.sum())) * np.repeat(mass, incoming)
        src = np.concatenate((src, np.where(
            pick < running[-1], np.searchsorted(running, pick, side="right"),
            np.repeat(before, incoming))))
        dst = np.concatenate((dst, np.repeat(receivers, incoming)))
        transmit = np.concatenate((transmit, np.ones(len(pick), dtype=bool)))
    k = len(src)
    keep = ~world.quarantined[dst] | (rng.random(k) < cfg.quarantine_leak)
    ticks = np.ceil(rng.standard_exponential(k) / -math.log1p(-1.0 / cfg.duration_mean_ticks))
    dur = np.minimum(ticks, TICKS_PER_DAY).astype(np.int64)
    uniform = rng.random(k)
    cls = (uniform >= world.class_cdf[0]).astype(np.int64) + (uniform >= world.class_cdf[1])
    start = np.minimum(rng.integers(0, TICKS_PER_DAY, k, dtype=np.int64), TICKS_PER_DAY - dur)
    return tuple(a[keep] for a in (src, dst, cls, start, dur, transmit))


@settings(max_examples=60, deadline=None)
@given(cfg=st.builds(
    ScenarioConfig, index_cases=st.just(0), duration_mean_ticks=st.just(12.0),
    population=st.sampled_from([2, 3, 50, 400]),
    seed=st.integers(0, 2**16),
    adoption_fraction=st.sampled_from([0.0, 0.5]),
    contacts_per_day=st.sampled_from([2.7, 3.0, 8.0]),
    quarantine_leak=st.sampled_from([0.0, 0.05, 1.0])),
    quarantined_share=st.sampled_from([0.1, 0.5, 1.0]))
def test_part_two_senders_match_the_population_running_sum(cfg, quarantined_share):
    # On random health and quarantine states, below full adoption, the
    # sampler returns exactly the population-sum sampler's arrays and leaves
    # the generator where it leaves it. Day 0 has nobody quarantined, so its
    # running sums come from `free_running`; days 1 and 2 quarantine a share,
    # at leak 0 with zero-rate senders; day 2 has an infectious agent but no
    # part-2 sender.
    n = cfg.population
    world, reference = World(cfg), World(cfg)
    states = np.random.default_rng(cfg.seed)
    for day in range(3):
        health = states.choice(
            [simnet.SUSCEPTIBLE, simnet.EXPOSED, simnet.INFECTIOUS,
             simnet.SYMPTOMATIC, simnet.REMOVED], n, p=[0.6, 0.1, 0.1, 0.1, 0.1])
        quarantined = states.random(n) < (quarantined_share if day else 0.0)
        if day == 2:
            health[(health == simnet.SUSCEPTIBLE) & ~world.adopter] = simnet.REMOVED
            health[0] = simnet.INFECTIOUS
        for w in (world, reference):
            w.health[:] = health
            w.quarantined[:] = quarantined
        got = world._sample_events()
        want = population_sum_sample_events(reference)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        assert world.nprng.bit_generator.state == reference.nprng.bit_generator.state


# Each law check compares a statistic of the sampler with the reference's on
# independent seeds; the bound is four standard errors of the difference.
def _within_four_standard_errors(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    se = np.sqrt(new.var(ddof=1) / len(new) + ref.var(ddof=1) / len(ref))
    assert abs(new.mean() - ref.mean()) < 4 * se, (new.mean(), ref.mean(), se)


@pytest.mark.parametrize("adoption_fraction", [0.0, 0.3])
@pytest.mark.parametrize("duration_mean_ticks", [2.0, 12.0])
def test_sampler_keeps_the_reference_law_on_fixed_states(duration_mean_ticks,
                                                         adoption_fraction):
    # One World state, with a tenth of the agents quarantined, is sampled
    # 300 times by each sampler. Compared per event that matters: each
    # distance class's share, the duration and the start tick. Compared per
    # day: each infectious agent's count of events that can transmit.
    cfg = ScenarioConfig(population=2000, seed=4, index_cases=0,
                         adoption_fraction=adoption_fraction, quarantine_leak=0.2,
                         duration_mean_ticks=duration_mean_ticks)
    world = World(cfg)
    _set_health(world, 4)
    world.quarantined[:] = np.random.default_rng(5).random(cfg.population) < 0.1
    infectious = np.flatnonzero(simnet.TRANSMISSION_ROLE[world.health] == 1)
    quarantined = world.quarantined[infectious]
    assert quarantined.any() and not quarantined.all()
    days = 300

    def sample(sampler, first_seed):
        per_event = {"cls": [], "dur": [], "start": []}
        per_agent = []
        for seed in range(first_seed, first_seed + days):
            world.nprng = np.random.default_rng(seed)
            src, dst, cls, start, dur, *_ = sampler(world)
            transmit, matters = _mattering(world, src, dst)
            for name, values in (("cls", cls), ("dur", dur), ("start", start)):
                per_event[name].append(values[matters])
            per_agent.append(
                np.bincount(src[transmit], minlength=cfg.population)[infectious]
                + np.bincount(dst[transmit], minlength=cfg.population)[infectious])
        return ({name: np.concatenate(v) for name, v in per_event.items()},
                np.array(per_agent))

    events, transmitting = sample(World._sample_events, 0)
    ref_events, ref_transmitting = sample(reference_sample_events, days)
    for c in range(3):
        _within_four_standard_errors(events["cls"] == c, ref_events["cls"] == c)
    _within_four_standard_errors(events["dur"], ref_events["dur"])
    _within_four_standard_errors(events["start"], ref_events["start"])
    _within_four_standard_errors(transmitting.sum(axis=1), ref_transmitting.sum(axis=1))
    for j in range(len(infectious)):
        _within_four_standard_errors(transmitting[:, j], ref_transmitting[:, j])


@pytest.mark.parametrize("adoption_fraction", [0.0, 0.5])
def test_sampler_keeps_the_reference_law_per_pair(adoption_fraction):
    # Five agents: one infectious, the agent before it a susceptible sender
    # that is not active, and another such sender quarantined. Each ordered
    # pair's count of transmitting events a day is compared over 3000 days
    # per sampler: the pair from the agent before carries the self-draw
    # shift, and the quarantined agent's pairs carry the leak both ways.
    n = 5
    cfg = ScenarioConfig(population=n, seed=6, index_cases=0,
                         adoption_fraction=adoption_fraction, quarantine_leak=0.3)
    world = World(cfg)
    free = np.flatnonzero(~world.adopter)
    before = free[0]
    infectious = (before + 1) % n
    quarantined = next(a for a in free if a not in (before, infectious))
    world.health[infectious] = simnet.INFECTIOUS
    world.quarantined[quarantined] = True
    days = 3000

    def sample(sampler, first_seed):
        per_pair = []
        for seed in range(first_seed, first_seed + days):
            world.nprng = np.random.default_rng(seed)
            src, dst, *_ = sampler(world)
            transmit, _ = _mattering(world, src, dst)
            per_pair.append(np.bincount(src[transmit] * n + dst[transmit],
                                        minlength=n * n))
        return np.array(per_pair)

    pairs = sample(World._sample_events, 0)
    ref_pairs = sample(reference_sample_events, days)
    for pair in range(n * n):
        a, b = divmod(pair, n)
        if a != b and infectious in (a, b):
            _within_four_standard_errors(pairs[:, pair], ref_pairs[:, pair])
        else:
            assert not pairs[:, pair].any() and not ref_pairs[:, pair].any()


@pytest.mark.slow
def test_sampler_keeps_the_reference_epidemic(monkeypatch):
    # 200 untraced runs with the sampler and 200 with the reference, on
    # disjoint seeds: the mean R0 of the index cases and the mean attack
    # rate agree.
    cfg = ScenarioConfig(population=300, days=60, index_cases=3,
                         adoption_fraction=0.0, p_transmit=0.001)
    runs = 200
    new = [run(cfg, seed=seed) for seed in range(runs)]

    def reference_with_transmit(world):
        src, dst, cls, start, dur = reference_sample_events(world)
        transmit, _ = _mattering(world, src, dst)
        return src, dst, cls, start, dur, transmit

    monkeypatch.setattr(World, "_sample_events", reference_with_transmit)
    ref = [run(cfg, seed=seed) for seed in range(runs, 2 * runs)]
    _within_four_standard_errors([r.empirical_r0 for r in new],
                                 [r.empirical_r0 for r in ref])
    _within_four_standard_errors([r.attack_rate for r in new],
                                 [r.attack_rate for r in ref])


def test_untraced_day_allocates_under_eight_population_arrays():
    # An untraced day draws only the events that can transmit, a few per
    # infectious agent, so what it allocates scales with the population, not
    # with every agent's contacts: its peak stays under eight int64 arrays
    # over the agents.
    cfg = ScenarioConfig(population=2000, days=10, seed=11, index_cases=20,
                         latency_days=0, adoption_fraction=0.0)
    world = World(cfg)
    world.step_day()
    tracemalloc.start()
    try:
        world.step_day()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert world.metrics["new_infections"][-1] > 0  # transmission step ran
    n = cfg.population
    assert peak < 8 * 8 * n, f"peak {peak / n:.1f} bytes per agent"


def test_day_with_no_active_agent_draws_nothing():
    # No adopter, and every index case still exposed: no agent is active, so
    # the sampler returns no event and leaves the generator as it was.
    world = World(ScenarioConfig(population=2000, seed=11, index_cases=20,
                                 adoption_fraction=0.0))
    assert not world.adopter.any()
    assert (world.health[list(world.index_infections)] == simnet.EXPOSED).all()
    state = world.nprng.bit_generator.state
    *columns, transmit = world._sample_events()
    for column in columns:
        assert column.dtype == np.int64 and len(column) == 0
    assert transmit.dtype == bool and len(transmit) == 0
    assert world.nprng.bit_generator.state == state


class _CountingKey:
    """A signing key that counts its signatures."""

    def __init__(self, key):
        self.key = key
        self.signatures = 0

    def sign(self, data):
        self.signatures += 1
        return self.key.sign(data)


@pytest.mark.parametrize("adoption_fraction, signed", [(0.0, 0), (1.0, 6)])
def test_day_list_is_signed_only_when_a_device_reads_it(adoption_fraction, signed):
    # Six days, each with a publish line; a traced run signs once a day and
    # a run with no device to read the list never signs.
    world = World(replace(FAST, adoption_fraction=adoption_fraction),
                  record_events=True)
    key = world.authority.signing_key = _CountingKey(world.authority.signing_key)
    for _ in range(6):
        world.step_day()
    assert key.signatures == signed
    assert sum(",publish," in line for line in event_lines(world.events)) == 6


def test_one_agent_world_has_no_contacts():
    # A lone agent has no partner: its device logs no identifier, not even
    # its own, and the event log has no contact line.
    world = World(ScenarioConfig(population=1, days=5, seed=1), record_events=True)
    for _ in range(5):
        world.step_day()
    assert not world.devices[0].log.records
    assert not any(",contact," in line for line in world.events)


def test_beacons_flow_through_real_codec(monkeypatch):
    calls = {"decode": 0}
    real_decode = simnet.decode_beacon

    def counting_decode(payload):
        calls["decode"] += 1
        return real_decode(payload)

    monkeypatch.setattr(simnet, "decode_beacon", counting_decode)
    world = World(replace(FAST, population=40, adoption_fraction=1.0))
    for _ in range(3):
        calls["decode"] = 0
        world.step_day()
        # One codec pass per device per day, not one per contact event.
        assert calls["decode"] == len(world.devices)
    assert any(dev.log.records for dev in world.devices.values())


def test_one_observe_span_call_per_logged_span(monkeypatch):
    # Each adopter-to-adopter contact is one span per partner, logged with
    # one call that a wrapper set on the class sees. The benchmark's traced
    # run relies on this count.
    calls = []
    real_observe_span = ContactLog.observe_span

    def counting_observe_span(self, *args):
        calls.append(args)
        return real_observe_span(self, *args)

    monkeypatch.setattr(ContactLog, "observe_span", counting_observe_span)
    world = World(replace(FAST, population=40, adoption_fraction=0.7),
                  record_events=True)
    for _ in range(4):
        world.step_day()
    contacts = sum(",contact," in line for line in event_lines(world.events))
    assert contacts
    assert len(calls) == 2 * contacts


def test_traced_day_leaves_no_tracked_object_per_span(monkeypatch):
    # The beacon pass keeps no tracked object per event or per device, and
    # a log stores none per record, so a traced day allocates one day dict
    # per log for the garbage collector to walk, during the pass and after
    # it, and nothing per span.
    cfg = replace(FAST, population=200, adoption_fraction=1.0, contacts_per_day=20.0)
    world = World(cfg, record_events=True)
    for _ in range(2):
        world.step_day()
    counts = []  # net new tracked objects at each observe_span call
    real_observe_span = ContactLog.observe_span

    def counting_observe_span(self, *args):
        counts.append(gc.get_count()[0] - before)
        return real_observe_span(self, *args)

    monkeypatch.setattr(ContactLog, "observe_span", counting_observe_span)
    bound = len(world.devices) + 100
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        world.step_day()
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert len(counts) > 10 * bound
    assert max(counts) < bound
    assert after - before < bound


def _acted_on(log):
    """The (date, rdi) of each record the device has acted on."""
    return [(date, rdi) for date, day in log.days.items() for rdi in day
            if log.record(date, rdi).acted]


def _own_identifier(world, agent, day):
    """The identifier `agent`'s device broadcast on `day`: its slice of the
    day's one draw, at the device's place in `world.devices`."""
    i = list(world.devices).index(agent)
    return world.identifiers[day][RDI_BYTES * i:RDI_BYTES * (i + 1)]


def _exchange_one_event_at_a_time(world, lines, day, src, dst, cls, start, dur):
    """Per-event, per-tick reference for World._exchange_beacons: the codec
    runs for each beacon, the class is estimated for each event, every tick
    of a span is a separate observe call, and each `contact` line is its own
    string appended to `lines`."""
    for i in range(len(src)):
        a, b = int(src[i]), int(dst[i])
        if not (world.adopter[a] and world.adopter[b]):
            continue
        rssi = simnet.CLASS_RSSI_DBM[DistanceClass(int(cls[i]))]
        observed = estimate_distance_class(rssi, simnet.TX_POWER_DBM)
        s, d = int(start[i]), int(dur[i])
        for rx, tx in ((a, b), (b, a)):
            ident = DailyIdentifier(_own_identifier(world, tx, day), day)
            rdi = decode_beacon(encode_beacon(ident))
            for tick in range(s, s + d):
                world.devices[rx].log.observe([(rdi, observed)], day, tick)
        lines.append(f"{day},{s},contact,{a},{b},{int(cls[i])}:{d}")


# Long contacts make overlapping spans of one pair on one day common, so
# the first-claim order between events is exercised.
LONG_CONTACTS = ScenarioConfig(population=60, days=5, seed=11, adoption_fraction=0.6,
                               index_cases=3, duration_mean_ticks=300.0,
                               p_transmit=0.01)


def test_daily_beacon_pass_matches_per_event_reference(monkeypatch):
    _check_beacon_pass_against_reference(monkeypatch, LONG_CONTACTS)


def test_daily_beacon_pass_matches_per_event_reference_on_acted_records(monkeypatch):
    # Carriers register from day 1 and their contacts are traced too, so
    # devices act on records inside the window: some compared pairs hold
    # exactly one acted record, and still agree on counts and ticks.
    cfg = replace(LONG_CONTACTS, latency_days=1, symptom_onset_days=1,
                  trace_contact_derived=True)
    assert _check_beacon_pass_against_reference(monkeypatch, cfg)


def _check_beacon_pass_against_reference(monkeypatch, cfg):
    """Step `cfg` with the batched beacon pass and with the per-event
    reference, compare both worlds, and return the number of `contact`
    lines whose partners hold records of which exactly one is acted on."""
    batched = World(cfg, record_events=True)
    reference = World(cfg, record_events=True)
    # The reference's lines join into the same day text as the batched pass.
    monkeypatch.setattr(
        reference, "_exchange_beacons",
        lambda *args: _exchange_one_event_at_a_time(reference, reference.day_lines,
                                                    *args))
    for _ in range(cfg.days):
        batched.step_day()
        reference.step_day()
    assert batched.devices.keys() == reference.devices.keys()
    for agent, dev in batched.devices.items():
        records = dev.log.records
        assert records
        # Stored values are canonical: equal ints mean equal counts and the
        # same counted ticks.
        assert records == reference.devices[agent].log.records
    assert batched.events == reference.events
    assert batched.metrics == reference.metrics
    # Both partners of a contact log each other's spans in the same order,
    # so they store equal counts and ticks for the day; only a device acting
    # on its record sets that record's `acted` apart.
    contacts = [line.split(",") for line in event_lines(batched.events)
                if ",contact," in line]
    assert contacts
    one_acted = 0
    for day, _, _, a, b, _ in contacts:
        day, a, b = int(day), int(a), int(b)
        rec_a = batched.devices[a].log.record(day, _own_identifier(batched, b, day))
        rec_b = batched.devices[b].log.record(day, _own_identifier(batched, a, day))
        for prop in ("near_ticks", "mid_ticks", "far_ticks", "ticks"):
            assert getattr(rec_a, prop) == getattr(rec_b, prop)
        if rec_a.acted == rec_b.acted:
            assert rec_a.record == rec_b.record
        else:
            one_acted += 1
    return one_acted


def test_contact_lines_name_agents_past_the_tick_tables(monkeypatch):
    # The pinned worlds hold at most 120 agents. Here agent ids pass the
    # size of the tick and duration tables (2880 and 2881 lines), and the
    # day text still equals the per-event reference's f-strings.
    cfg = ScenarioConfig(population=3000, days=2, seed=5, adoption_fraction=0.4,
                         index_cases=3)
    world = World(cfg, record_events=True)
    reference = World(cfg, record_events=True)
    monkeypatch.setattr(
        reference, "_exchange_beacons",
        lambda *args: _exchange_one_event_at_a_time(reference, reference.day_lines,
                                                    *args))
    for _ in range(cfg.days):
        world.step_day()
        reference.step_day()
    assert world.events == reference.events
    agents = {int(agent) for line in event_lines(world.events)
              if ",contact," in line for agent in line.split(",")[3:5]}
    assert max(agents) > TICKS_PER_DAY + 1
    # A world that records no events builds no line tables.
    assert World(cfg).line_tables is None


def test_event_log_is_one_text_per_stepped_day(monkeypatch):
    # World.events keeps one string per stepped day, its lines joined by
    # "\n" with no trailing newline, so the log costs one object a day, not
    # one per line. A one-line-per-string reference logs the same text.
    cfg = replace(FAST, population=200, adoption_fraction=0.8, index_cases=3)
    days = 6
    world = World(cfg, record_events=True)
    reference = World(cfg)
    lines = []
    monkeypatch.setattr(
        reference, "_log_event",
        lambda day, kind, subject, obj, detail:
            lines.append(f"{day},0,{kind},{subject},{obj},{detail}"))
    monkeypatch.setattr(
        reference, "_exchange_beacons",
        lambda *args: _exchange_one_event_at_a_time(reference, lines, *args))
    for _ in range(days):
        world.step_day()
        reference.step_day()
    assert len(world.events) == days
    assert len(lines) > 10 * days
    text = "\n".join(world.events)
    assert text == "\n".join(lines)
    assert [t.split(",", 1)[0] for t in world.events] == [str(d) for d in range(days)]
    assert sum(map(sys.getsizeof, world.events)) <= len(text) + 100 * days
    # A lone agent has no contact, but every day still logs its publish line.
    lone = World(ScenarioConfig(population=1, days=3, seed=1), record_events=True)
    for _ in range(3):
        lone.step_day()
    assert lone.events == [f"{d},0,publish,-,-,entries=0" for d in range(3)]


def test_trace_through_nonadopter_index_case():
    # A non-adopter index case is never tested, but the adopters it infects
    # become symptomatic, register, and their contacts get traced.
    cfg = ScenarioConfig(
        population=6, days=20, seed=5, index_cases=0, adoption_fraction=1.0,
        contacts_per_day=6.0, duration_mean_ticks=60.0,
        near_fraction=1.0, mid_fraction=0.0, far_fraction=0.0,
        p_transmit=0.2, asymptomatic_fraction=0.0, test_delay_days=0,
    )
    world = World(cfg)
    index = 0
    world.adopter[index] = False
    world.devices.pop(index)
    world.health[index] = simnet.INFECTIOUS
    world.day_infected[index] = 0
    world.index_infections[index] = 0
    seen_states = set()
    peak_cases = 0
    for _ in range(cfg.days):
        world.step_day()
        peak_cases = max(peak_cases, len(world.authority.cases))
        seen_states |= {c.state for c in world.authority.cases.values()}
    assert (world.day_infected >= 0).sum() > 1  # transmissions occurred
    assert peak_cases > 0  # contacts were traced
    assert world.known_carrier[1:].any()
    assert seen_states & {CaseState.AWAITING_TEST1, CaseState.AWAITING_TEST2,
                          CaseState.CARRIER, CaseState.RELEASED,
                          CaseState.DROPPED}


@pytest.mark.parametrize("overrides", [
    {},
    {"test_delay_days": 2, "incubation_days": 0},
], ids=["defaults", "delay2-incubation0"])
def test_pending_case_tests_track_awaiting_cases(overrides):
    cfg = replace(FAST, days=30, retention_days=5, **overrides)
    world = World(cfg)
    awaiting = {CaseState.AWAITING_TEST1, CaseState.AWAITING_TEST2}
    ever_pending = False
    for _ in range(cfg.days):
        world.step_day()
        tokens = [token for tests in world.pending_tests.values()
                  for kind, _, token in tests if kind == "case"]
        pending = set(tokens)
        assert len(tokens) == len(pending)  # one pending test per case
        assert pending == {token for token, case in world.authority.cases.items()
                           if case.state in awaiting}
        ever_pending |= bool(pending)
        cutoff = world.day - 1 - cfg.retention_days
        assert all(date >= cutoff for date in world.identifiers)
        for dev in world.devices.values():
            assert all(date >= cutoff for date in dev.log.days)
    assert ever_pending
    assert any(_acted_on(dev.log) for dev in world.devices.values())


small_worlds = st.builds(
    ScenarioConfig,
    population=st.integers(20, 200), days=st.integers(1, 30),
    seed=st.integers(0, 2**16), index_cases=st.integers(1, 3),
    p_transmit=st.sampled_from([0.005, 0.01, 0.02]),
    incubation_days=st.integers(0, 6), test_delay_days=st.integers(0, 3),
    retention_days=st.integers(1, 21),
    adoption_fraction=st.sampled_from([0.3, 0.6, 1.0]),
    categories_traced=st.sampled_from(["cat1", "cat1+cat2"]),
    trace_contact_derived=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@example(ScenarioConfig(population=120, days=30, seed=3, index_cases=2,
                        p_transmit=0.01, retention_days=7, incubation_days=0,
                        test_delay_days=2))
@given(small_worlds)
def test_simulator_is_a_well_behaved_casework_client(cfg):
    # The simulator only sends messages a case expects, so casework audits
    # nothing but history uploads, and each test it counts is one it logs.
    # Quarantine covers exactly the agents whose case awaits a test plus the
    # infected known carriers; devices keep nothing past retention; the
    # reported list size is the published one.
    world = World(cfg, record_events=True)
    awaiting = (CaseState.AWAITING_TEST1, CaseState.AWAITING_TEST2)
    for day in range(cfg.days):
        world.step_day()
        for case in world.authority.cases.values():
            assert [e for e in case.audit if e != "history uploaded"] == []
        today = [line.split(",") for line in world.events[-1].split("\n")]
        tests = [f for f in today if f[2] == "test"]
        assert world.metrics["tests_used"][-1] == len(tests)

        # Every test left pending is due after the day just stepped.
        assert all(due > day for due in world.pending_tests)
        pending = {token: agent for tests in world.pending_tests.values()
                   for kind, agent, token in tests if kind == "case"}
        assert set(pending) == {token for token, case in world.authority.cases.items()
                                if case.state in awaiting}
        infected = np.isin(world.health, (simnet.EXPOSED, simnet.INFECTIOUS,
                                          simnet.SYMPTOMATIC))
        carriers = np.flatnonzero(world.known_carrier & infected).tolist()
        assert world.metrics["quarantined"][-1] == len(set(pending.values())
                                                       | set(carriers))

        cutoff = day - cfg.retention_days
        assert all(date >= cutoff for date in world.identifiers)
        for dev in world.devices.values():
            assert all(date >= cutoff for date, _ in dev.log.records)

        [publish] = [f for f in today if f[2] == "publish"]
        assert publish[5] == f"entries={world.metrics['list_size'][-1]}"


def test_long_run_keeps_device_state_inside_the_retention_window():
    # `run` stops at extinction, so the world is stepped directly: over 120
    # days a device keeps at most the window's dates of records, and the
    # world the window's dates of identifiers, however long the epidemic
    # lasts. An acted-on hit is a bit of its record, so it ages out by date
    # with the log.
    cfg = ScenarioConfig(population=300, days=120, seed=1, index_cases=3,
                         p_transmit=0.01, retention_days=7)
    world = World(cfg)
    full_windows = late_hits = 0
    for day in range(cfg.days):
        world.step_day()
        cutoff = day - cfg.retention_days
        assert list(world.identifiers) == list(range(max(0, cutoff), day + 1))
        for dev in world.devices.values():
            dates = dev.log.days.keys()
            assert len(dates) <= cfg.retention_days + 1
            assert all(cutoff <= date <= day for date in dates)
            full_windows += len(dates) == cfg.retention_days + 1
            late_hits += day > 2 * cfg.retention_days and bool(_acted_on(dev.log))
    assert full_windows and late_hits


@pytest.mark.parametrize("seed", range(5))
def test_empirical_r0_counts_infections_by_index_agents(seed):
    # R0 is measured on the index cases only: infections they caused over
    # their number, read back from the event log.
    cfg = replace(FAST, days=30, index_cases=4, adoption_fraction=0.6)
    world = World(cfg, seed=seed, record_events=True)
    index = {str(a) for a in np.flatnonzero(world.day_infected == 0)}
    for _ in range(cfg.days):
        world.step_day()
    report = simnet.finalize_report(world)
    rows = [line.split(",") for line in event_lines(report.events)]
    caused = sum(1 for f in rows if f[2] == "infect" and f[3] in index)
    assert len(index) == cfg.index_cases
    assert report.empirical_r0 == caused / len(index)


def test_authority_never_stores_agent_identity():
    cfg = replace(FAST, adoption_fraction=1.0, days=12, p_transmit=0.05)
    world = World(cfg)
    for _ in range(cfg.days):
        world.step_day()
    import json

    dump = json.loads(world.authority.serialize_state())
    assert set(dump) == {"entries", "cases"}
    text = world.authority.serialize_state()
    for banned in ("agent", "identity", "device_id", "owner"):
        assert banned not in text


privacy_worlds = st.builds(
    ScenarioConfig,
    population=st.integers(20, 120), days=st.integers(6, 16),
    seed=st.integers(0, 2**16), index_cases=st.integers(1, 3),
    p_transmit=st.sampled_from([0.01, 0.02]),
    retention_days=st.integers(1, 21), lookback_days=st.integers(0, 6),
    test_delay_days=st.integers(0, 2),
    adoption_fraction=st.sampled_from([0.6, 1.0]),
)


@pytest.mark.parametrize("contact_derived", [False, True],
                         ids=["own_identifiers", "contact_derived"])
@settings(max_examples=4, deadline=None)
@example(cfg=replace(FAST, days=12, retention_days=7, lookback_days=3))
@given(cfg=privacy_worlds)
def test_only_carriers_identifiers_reach_the_authority(contact_derived, cfg):
    # The paper's privacy claim inside a run. Uploads are observed through
    # a spy on the authority's `register_carrier`, and each published list
    # is read back from its bytes. After every day: (1) each stored entry is
    # a known carrier's own identifier from its lookback window, or, with
    # contact-derived tracing, a record of a carrier's upload; (2) without
    # it, no published list names a device that is not a known carrier; (3)
    # no case holds any device's identifier, in bytes or in hex; (4) erasure
    # has left no resolved case or stale entry past its cutoff.
    cfg = replace(cfg, trace_contact_derived=contact_derived)
    world = World(cfg)
    authority = world.authority
    agents = list(world.devices)
    owners = {}  # (date, rdi) -> the agent whose device broadcast it
    uploaded = set()  # the (date, rdi) an upload lets the authority store
    published = []
    register, publish = authority.register_carrier, authority.publish

    def learn_identifiers():
        for date, draw in world.identifiers.items():
            for k, agent in enumerate(agents):
                owners[(date, draw[RDI_BYTES * k:RDI_BYTES * (k + 1)])] = agent

    def register_spy(history, infectious_start, own_identifiers=(), today=0):
        history, own = list(history), list(own_identifiers)
        learn_identifiers()
        assert infectious_start == today - cfg.lookback_days
        [carrier] = {owners[key] for key in own}
        assert world.known_carrier[carrier]
        assert all(infectious_start <= date <= today for date, _ in own)
        uploaded.update(own)
        if contact_derived:
            uploaded.update((rec.date, rec.rdi) for rec in history
                            if rec.date >= infectious_start)
        return register(history, infectious_start, own_identifiers=own, today=today)

    def publish_spy(epoch_date):
        lst = publish(epoch_date)
        published.append(deserialize_list(serialize_list(lst)))
        return lst

    authority.register_carrier, authority.publish = register_spy, publish_spy
    for day in range(cfg.days):
        world.step_day()
        learn_identifiers()
        assert set(authority.entries) <= uploaded
        if not contact_derived:
            assert all(world.known_carrier[owners[key]]
                       for lst in published for key in lst.entries)
        published.clear()
        # JSON text is ASCII: only an ASCII rdi could occur in it as bytes.
        cases = json.dumps(json.loads(authority.serialize_state())["cases"])
        runs = re.findall("[0-9a-f]{32,}", cases)
        hexes = {run[i:i + 32] for run in runs for i in range(len(run) - 31)}
        rdis = {rdi for _, rdi in owners}
        assert not hexes & {rdi.hex() for rdi in rdis}
        assert not any(rdi in cases.encode() for rdi in rdis if rdi.isascii())
        assert all(case.resolution_epoch is None or case.resolution_epoch >= day
                   for case in authority.cases.values())
        assert all(added >= day - 1 for added in authority.entries.values())


def test_r_effective_constant_series_is_one():
    report = MetricsReport(
        population=100, days=30, latency_days=3,
        new_infections=[10] * 30, active_cases=[1] * 30,
        quarantined=[0] * 30, tests_used=[0] * 30, list_size=[0] * 30,
        attack_rate=0.0, empirical_r0=0.0, extinction_day=-1,
    )
    series = estimate_R_effective(report)
    assert series
    assert all(v == pytest.approx(1.0) for _, v in series)


def test_r_effective_doubling_series_is_two():
    g = 3 + 2
    new = [int(10 * 2 ** (t / g)) for t in range(40)]
    report = MetricsReport(
        population=100, days=40, latency_days=3,
        new_infections=new, active_cases=[1] * 40,
        quarantined=[0] * 40, tests_used=[0] * 40, list_size=[0] * 40,
        attack_rate=0.0, empirical_r0=0.0, extinction_day=-1,
    )
    series = estimate_R_effective(report)
    for _, value in series:
        assert value == pytest.approx(2.0, rel=0.1)


def test_r_effective_requires_enough_data():
    report = MetricsReport(
        population=1, days=3, latency_days=3,
        new_infections=[1, 1, 1], active_cases=[1] * 3,
        quarantined=[0] * 3, tests_used=[0] * 3, list_size=[0] * 3,
        attack_rate=0.0, empirical_r0=0.0, extinction_day=-1,
    )
    with pytest.raises(InsufficientData):
        estimate_R_effective(report)


def test_calibration_target_zero_is_p_zero():
    assert calibrate_p_transmit(FAST, target_r0=0.0) == 0.0


@pytest.mark.parametrize("target", [-1.0, float("nan"), float("inf")])
def test_calibration_rejects_bad_target_before_any_probe(monkeypatch, target):
    def probe(*args, **kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(simnet, "run", probe)
    with pytest.raises(InvalidConfig, match="target_r0"):
        calibrate_p_transmit(FAST, target_r0=target)


def _fake_probes(monkeypatch, r0_of_p):
    """Replace `simnet.run` by `r0_of_p(config.p_transmit)` and return the
    configs of every run, in call order."""
    calls = []

    def fake_run(config, seed=None, record_events=False):
        calls.append(config)
        return SimpleNamespace(empirical_r0=r0_of_p(config.p_transmit))

    monkeypatch.setattr(simnet, "run", fake_run)
    return calls


def test_calibration_bisects_to_target(monkeypatch):
    cfg = replace(FAST, course_days=9, adoption_fraction=0.5)
    calls = _fake_probes(monkeypatch, lambda p: 2000 * p)
    assert calibrate_p_transmit(cfg, target_r0=2.15) == 0.00109375
    probes = [calls[i:i + 20] for i in range(0, len(calls), 20)]
    assert [probe[0].p_transmit for probe in probes] == [
        0.02, 0.01, 0.005, 0.0025, 0.00125, 0.000625, 0.0009375, 0.00109375]
    for probe in probes:
        assert len(probe) == 20
        assert {c.p_transmit for c in probe} == {probe[0].p_transmit}
        assert all(c.days == cfg.course_days + 1 for c in probe)
        assert all(c.adoption_fraction == 0 for c in probe)
        assert [c.seed for c in probe] == [cfg.seed * 100003 + k for k in range(20)]


def test_calibration_gives_up_at_p_one(monkeypatch):
    calls = _fake_probes(monkeypatch, lambda p: 0.0)
    with pytest.raises(simnet.NoConvergence, match="p=1"):
        calibrate_p_transmit(FAST, target_r0=2.15)
    assert sorted({c.p_transmit for c in calls}) == [
        0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0]
    assert len(calls) == 7 * 20


def test_calibration_gives_up_after_thirty_probes(monkeypatch):
    # R0 jumps across the target, so no probe lands within the tolerance.
    calls = _fake_probes(monkeypatch, lambda p: 4.0 if p >= 0.001 else 0.0)
    with pytest.raises(simnet.NoConvergence, match="after 30 probes"):
        calibrate_p_transmit(FAST, target_r0=2.15)
    assert len(calls) == 30 * 20


@pytest.mark.parametrize("latency, course", [(3, 8), (0, 5), (0, 1), (7, 4)])
def test_probe_length_keeps_r0(latency, course):
    # A calibration probe stops after day course_days, the last day an index
    # case can transmit; running on to latency + course + 2 days must not
    # change what it measures.
    cfg = ScenarioConfig(population=200, seed=8, index_cases=4, p_transmit=0.03,
                         adoption_fraction=0.0, latency_days=latency,
                         symptom_onset_days=latency + 1, course_days=course)
    values = []
    for seed in range(5):
        short = run(replace(cfg, days=course + 1, seed=seed))
        long = run(replace(cfg, days=latency + course + 2, seed=seed))
        assert short.empirical_r0 == long.empirical_r0
        values.append(short.empirical_r0)
    assert any(values) == (latency < course)


def test_r0_estimate_monotone_in_contact_rate():
    base = ScenarioConfig(population=800, days=28, seed=6, index_cases=8,
                          adoption_fraction=0.0, p_transmit=0.004)

    def estimate(cfg):
        values = [run(replace(cfg, seed=100 + k)).empirical_r0 for k in range(8)]
        return sum(values) / len(values)

    single = estimate(base)
    double = estimate(replace(base, contacts_per_day=base.contacts_per_day * 2))
    assert double > single * 1.4


def test_metrics_csv_round_trip():
    report = run(FAST)
    text = report.to_csv()
    parsed = MetricsReport.from_csv(text)
    assert parsed.to_csv() == text


def test_invalid_config_propagates_from_run():
    with pytest.raises(InvalidConfig):
        run(ScenarioConfig(days=-1))
