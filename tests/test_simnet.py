import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracenet import simnet
from tracenet.casework import CaseState
from tracenet.ident import (
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


def test_config_validation_names_offending_fields():
    bad = ScenarioConfig(population=-1, adoption_fraction=1.5, near_fraction=0.9,
                         target_r0=-0.5)
    with pytest.raises(InvalidConfig) as err:
        bad.validate()
    text = str(err.value)
    assert "population" in text
    assert "target_r0" in text
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
    )
    cfg = config_from_file(path)
    assert cfg.population == 50
    assert cfg.days == 10
    assert cfg.seed == 4
    assert cfg.categories_traced == "cat1"


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


def test_quarantine_reduces_contact_rate():
    cfg = ScenarioConfig(population=400, days=1, seed=8, index_cases=0,
                         contacts_per_day=10.0, quarantine_leak=0.05,
                         adoption_fraction=0.0)
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
    # On equal seeds the sampler returns exactly the reference's arrays, day
    # after day, and leaves the generator where the reference leaves it. The
    # first day has every agent quarantined and the second none, so at a low
    # leak the second day outgrows the workspace the first day sized.
    cfg = replace(cfg, duration_mean_ticks=duration_mean_ticks)
    n = cfg.population
    masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool)] + [
        np.random.default_rng(day).random(n) < quarantined_share for day in range(3)]
    world, reference = World(cfg), World(cfg)
    capacities = []
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
        capacities.append(world.workspace.capacity)
    if n >= 50 and cfg.contacts_per_day and cfg.quarantine_leak <= 0.05:
        # At least 50 agents draw about 20 times more events unquarantined.
        assert capacities[1] > capacities[0]


def test_untraced_day_allocates_under_three_event_arrays():
    # After its first day a World writes the day's events into its reused
    # workspace. The only event-sized arrays a day allocates are then the
    # partner and start-tick draws, which Generator.integers cannot write
    # in place.
    cfg = ScenarioConfig(population=2000, days=10, seed=11, index_cases=20,
                         latency_days=0, adoption_fraction=0.0)
    world = World(cfg)
    world.step_day()
    sample = world._sample_events
    events = []

    def counted():
        arrays = sample()
        events.append(len(arrays[0]))
        return arrays

    world._sample_events = counted
    tracemalloc.start()
    try:
        world.step_day()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert world.metrics["new_infections"][-1] > 0  # transmission step ran
    assert peak < 3 * 8 * events[0], f"peak {peak / (8 * events[0]):.2f} event arrays"


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


def _exchange_one_event_at_a_time(world, day, src, dst, cls, start, dur):
    """Per-event, per-tick reference for World._exchange_beacons: the codec
    runs for each beacon, the class is estimated for each event, and every
    tick of a span is a separate observe call."""
    for i in range(len(src)):
        a, b = int(src[i]), int(dst[i])
        if not (world.adopter[a] and world.adopter[b]):
            continue
        rssi = simnet.CLASS_RSSI_DBM[DistanceClass(int(cls[i]))]
        observed = estimate_distance_class(rssi, simnet.TX_POWER_DBM)
        s, d = int(start[i]), int(dur[i])
        for rx, tx in ((a, b), (b, a)):
            rdi = decode_beacon(encode_beacon(world.devices[tx].current))
            for tick in range(s, s + d):
                world.devices[rx].log.observe([(rdi, observed)], day, tick)
        if world.record_events:
            world.events.append(f"{day},{s},contact,{a},{b},{int(cls[i])}:{d}")


def test_daily_beacon_pass_matches_per_event_reference(monkeypatch):
    # Long contacts make overlapping spans of one pair on one day common,
    # so the first-claim order between events is exercised.
    cfg = ScenarioConfig(population=60, days=5, seed=11, adoption_fraction=0.6,
                         index_cases=3, duration_mean_ticks=300.0,
                         p_transmit=0.01)
    batched = World(cfg, record_events=True)
    reference = World(cfg, record_events=True)
    monkeypatch.setattr(
        reference, "_exchange_beacons",
        lambda *args: _exchange_one_event_at_a_time(reference, *args))
    for _ in range(cfg.days):
        batched.step_day()
        reference.step_day()
    assert batched.devices.keys() == reference.devices.keys()
    for agent, dev in batched.devices.items():
        records = dev.log.records
        assert records
        # Stored values are canonical: equal tuples mean equal counts and
        # the same counted ticks.
        assert records == reference.devices[agent].log.records
    assert batched.events == reference.events
    assert batched.metrics == reference.metrics


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
        for dev in world.devices.values():
            assert all(date >= cutoff for date, _ in dev.handled)
    assert ever_pending
    assert any(dev.handled for dev in world.devices.values())


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
        logged = len(world.events)
        world.step_day()
        for case in world.authority.cases.values():
            assert [e for e in case.audit if e != "history uploaded"] == []
        today = [line.split(",") for line in world.events[logged:]]
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
        for dev in world.devices.values():
            assert all(date >= cutoff for date, _ in dev.log.records)
            assert all(date >= cutoff for date in dev.id_history)

        [publish] = [f for f in today if f[2] == "publish"]
        assert publish[5] == f"entries={world.metrics['list_size'][-1]}"


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
    rows = [line.split(",") for line in report.events]
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
