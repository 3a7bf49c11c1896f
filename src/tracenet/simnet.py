"""Deterministic agent-based epidemic simulator driving the tracing stack.

One seeded run is fully reproducible: agents mix homogeneously, contact
events are tick-resolved inside a day, disease progression is day-resolved,
and every beacon a device logs goes through the real codec and contact-log
code. Tracing, casework and publication run against the real authority.
"""

from __future__ import annotations

import io
import math
import random
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import repeat, zip_longest

import numpy as np

from . import casework, matching
from .authority import AuthorityState, generate_keypair, verify_list
from .casework import CaseState, MailboxMessage, MessageKind
from .contact_log import DEFAULT_RETENTION_DAYS, Category, ContactLog, TICKS_PER_DAY
from .ident import (RDI_BYTES, DailyIdentifier, DistanceClass, decode_beacon,
                    encode_beacon, estimate_distance_class)
# Unread here: perfbench's tracer wraps these two names in this module.
from .ident import generate_daily_identifier, rotate_if_needed  # noqa: F401

# Health state codes.
SUSCEPTIBLE = 0
EXPOSED = 1
INFECTIOUS = 2
SYMPTOMATIC = 3
REMOVED = 4

# Each health state's part in transmission, indexed by health code:
# susceptible 2, infectious or symptomatic 1, otherwise 0. A contact can
# transmit exactly when its partners' parts are 1 and 2, so XOR to 3.
TRANSMISSION_ROLE = np.array([2, 0, 1, 1, 0], dtype=np.int8)

# Calibrated broadcast power at 1 m and representative received powers per
# distance class, so receivers classify proximity from power like a radio
# would instead of being told the class.
TX_POWER_DBM = -59
CLASS_RSSI_DBM = {
    DistanceClass.NEAR: -59,  # ~1 m
    DistanceClass.MID: -69,  # ~3.2 m
    DistanceClass.FAR: -79,  # ~10 m
}

# The per-day series of metrics.csv, in column order.
SERIES = ("new_infections", "active_cases", "quarantined", "tests_used", "list_size")
METRICS_CSV_HEADER = ",".join(("day",) + SERIES)
# The `# key=value` lines of its summary block, in the order to_csv writes
# them, each with the format spec of its value.
SUMMARY_FORMATS = {"population": "d", "days": "d", "latency_days": "d",
                   "attack_rate": ".6f", "empirical_r0": ".6f",
                   "extinction": "d", "extinction_day": "d"}


# Each `categories_traced` value and the categories it traces.
TRACED_CATEGORIES = {"cat1": (Category.CATEGORY1,), "cat1+cat2": casework.ALL_CATEGORIES}


class InvalidConfig(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NoConvergence(RuntimeError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    population: int = 1000
    days: int = 60
    seed: int = 0
    latency_days: int = 3
    symptom_onset_days: int = 5
    course_days: int = 21
    asymptomatic_fraction: float = 0.3
    adoption_fraction: float = 1.0
    test_delay_days: int = 0
    contacts_per_day: float = 8.0
    duration_mean_ticks: float = 12.0
    near_fraction: float = 0.5
    mid_fraction: float = 0.3
    far_fraction: float = 0.2
    p_transmit: float = 0.01
    quarantine_leak: float = 0.05
    categories_traced: str = "cat1+cat2"
    index_cases: int = 1
    retention_days: int = DEFAULT_RETENTION_DAYS
    incubation_days: int = casework.DEFAULT_INCUBATION_DAYS
    lookback_days: int = casework.DEFAULT_LOOKBACK_DAYS
    trace_contact_derived: bool = False

    def validate(self) -> "ScenarioConfig":
        # Every range check below is meaningless on inf or nan, so those
        # are reported alone.
        problems = [
            f"{f.name} must be finite, got {getattr(self, f.name)}"
            for f in fields(self)
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name))
        ]
        if problems:
            raise InvalidConfig(problems)
        for name in ("population", "days", "latency_days", "symptom_onset_days",
                     "course_days", "test_delay_days", "index_cases",
                     "retention_days", "incubation_days", "lookback_days"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("asymptomatic_fraction", "adoption_fraction", "p_transmit",
                     "quarantine_leak", "near_fraction", "mid_fraction",
                     "far_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                problems.append(f"{name} must be in [0, 1], got {value}")
        # More than one new contact per tick describes no device's day, and
        # far larger rates overflow the Poisson draw or the day's buffers.
        if not 0 <= self.contacts_per_day <= TICKS_PER_DAY:
            problems.append(f"contacts_per_day must be in [0, {TICKS_PER_DAY}], "
                            f"got {self.contacts_per_day}")
        if self.duration_mean_ticks < 1:
            problems.append(
                f"duration_mean_ticks must be >= 1, got {self.duration_mean_ticks}"
            )
        mix = self.near_fraction + self.mid_fraction + self.far_fraction
        if abs(mix - 1.0) > 1e-9:
            problems.append(f"distance-class mix must sum to 1, got {mix}")
        if self.categories_traced not in TRACED_CATEGORIES:
            problems.append(
                f"categories_traced must be {' or '.join(map(repr, TRACED_CATEGORIES))}, "
                f"got {self.categories_traced!r}"
            )
        if problems:
            raise InvalidConfig(problems)
        return self

    @property
    def traced_categories(self):
        return TRACED_CATEGORIES[self.categories_traced]


def config_from_file(path) -> ScenarioConfig:
    """Parse a flat key=value scenario file ('#' starts a comment)."""
    by_name = {f.name: f for f in fields(ScenarioConfig)}
    values = {}
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfig([f"{path}: {exc}"]) from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig([f"{path}:{lineno}: expected key=value, got {line!r}"])
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            spec = by_name.get(key)
            if spec is None:
                raise InvalidConfig([f"{path}:{lineno}: unknown key {key!r}"])
            if key in values:
                raise InvalidConfig([f"{path}:{lineno}: duplicate key {key!r}"])
            try:
                if spec.type in ("int", int):
                    values[key] = int(value)
                elif spec.type in ("float", float):
                    values[key] = float(value)
                elif spec.type in ("bool", bool):
                    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                        raise ValueError(
                            f"expected 1/true/yes or 0/false/no, got {value!r}")
                    values[key] = value.lower() in ("1", "true", "yes")
                else:
                    values[key] = value
            except ValueError as exc:
                raise InvalidConfig([f"{path}:{lineno}: bad {key}: {exc}"]) from exc
    return ScenarioConfig(**values).validate()


def infection_probability(near_ticks, mid_ticks, p_transmit):
    """Per-event infection probability: each near tick is an independent
    transmission chance, mid ticks count half, far ticks nothing."""
    exposure = near_ticks + 0.5 * mid_ticks
    return 1.0 - np.power(1.0 - p_transmit, exposure)


@dataclass
class Device:
    # The device's only state. Its own identifiers are `World.identifiers`,
    # and the hits it acted on are marked in the log (`mark_acted`).
    log: ContactLog


def _first_day_without_cases(active_cases) -> int:
    """The extinction day: the first day that ends with no active case, or -1."""
    return next((d for d, value in enumerate(active_cases) if value == 0), -1)


@dataclass
class MetricsReport:
    population: int
    days: int
    latency_days: int
    new_infections: list
    active_cases: list
    quarantined: list
    tests_used: list
    list_size: list
    attack_rate: float
    empirical_r0: float
    extinction_day: int  # -1 when the epidemic never died out
    # One text per stepped day: that day's event lines joined by "\n", with
    # no trailing newline. events.log is each text followed by "\n".
    events: list = field(default_factory=list, repr=False)

    @property
    def extinction(self) -> bool:
        return self.extinction_day >= 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(METRICS_CSV_HEADER + "\n")
        for d, row in enumerate(zip(*(getattr(self, key) for key in SERIES))):
            buf.write(f"{d}," + ",".join(map(str, row)) + "\n")
        buf.write("# summary\n")
        for key, fmt in SUMMARY_FORMATS.items():
            buf.write(f"# {key}={getattr(self, key):{fmt}}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricsReport":
        """Parse a metrics CSV. Values are read with `int` and `float` and
        checked only for what `to_csv` cannot check; then the text must be
        what `to_csv` writes for them, or the first line that differs raises
        `line N: to_csv writes X, got Y`. Every error is a ValueError."""
        lines = text.splitlines()
        if not lines or lines[0] != METRICS_CSV_HEADER:
            raise ValueError("bad metrics CSV header")
        series = {key: [] for key in SERIES}
        summary = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                summary[key] = value
                continue
            parts = line.split(",")
            if len(parts) != len(series) + 1:
                raise ValueError(
                    f"line {lineno}: expected {len(series) + 1} fields, got {line!r}")
            try:
                row = [int(value) for value in parts]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if min(row) < 0:
                raise ValueError(f"line {lineno}: expected integers >= 0, got {line!r}")
            for key, value in zip(series, row[1:]):
                series[key].append(value)
        for key in SUMMARY_FORMATS:
            if key not in summary:
                raise ValueError(f"no '# {key}=' line in the summary")
        try:
            counts = {key: int(summary[key])
                      for key in ("population", "days", "latency_days")}
            attack_rate = float(summary["attack_rate"])
            empirical_r0 = float(summary["empirical_r0"])
            extinction_day = int(summary["extinction_day"])
        except ValueError as exc:
            raise ValueError(f"summary: {exc}") from exc
        for key, value in counts.items():
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        rows = len(series["active_cases"])
        if rows != counts["days"]:
            raise ValueError(f"days={counts['days']} but {rows} day rows")
        if not 0.0 <= attack_rate <= 1.0:
            raise ValueError(f"attack_rate must be in [0, 1], got {attack_rate}")
        if not (math.isfinite(empirical_r0) and empirical_r0 >= 0):
            raise ValueError(f"empirical_r0 must be in [0, inf), got {empirical_r0}")
        expected = _first_day_without_cases(series["active_cases"])
        if extinction_day != expected:
            raise ValueError(f"extinction_day must be {expected}, got {extinction_day}")
        report = cls(**counts, attack_rate=attack_rate, empirical_r0=empirical_r0,
                     extinction_day=extinction_day, **series)
        written = report.to_csv().splitlines(True)
        for lineno, (got, want) in enumerate(
                zip_longest(text.splitlines(True), written, fillvalue=""), 1):
            if got != want:
                raise ValueError(f"line {lineno}: to_csv writes {want!r}, got {got!r}")
        return report


class World:
    """All mutable simulation state for one run.

    With `record_events`, each element of `events` is one stepped day's
    event lines joined by "\n", with no trailing newline. The lines are
    gathered in `day_lines` while the day runs; every day logs a `publish`
    line, so no day's text is empty. Such a world also holds `line_tables`,
    the text of a `contact` line's columns by value (`_exchange_beacons`);
    any other world holds None there.
    """

    def __init__(self, config: ScenarioConfig, seed: int = None,
                 record_events: bool = False):
        config.validate()
        if seed is not None:
            config = replace(config, seed=seed)
        self.config = config
        self.day = 0
        self.rng = random.Random(config.seed)
        self.nprng = np.random.default_rng(self.rng.getrandbits(63))
        self.record_events = record_events
        self.events = []
        self.day_lines = []

        n = config.population
        # The `contact` line's pieces: "<tick>,contact," by tick, "<agent>,"
        # by agent, "<class>:" by class and "<duration>\n" by duration.
        self.line_tables = None
        if record_events:
            self.line_tables = tuple(
                np.array([fmt % v for v in range(size)], dtype=object)
                for fmt, size in (("%d,contact,", TICKS_PER_DAY), ("%d,", n),
                                  ("%d:", len(DistanceClass)),
                                  ("%d\n", TICKS_PER_DAY + 1)))
        # The contact rate of every agent on a day with nobody quarantined,
        # one value seen n times, and `free_running`, its running sums: on
        # such a day the first k are those of any k part-2 senders. Then the
        # normalised cumulative distance-class mix (`_sample_events`).
        self.free_rate = np.broadcast_to(np.float64(config.contacts_per_day), n)
        self.free_running = np.cumsum(self.free_rate)
        self.class_cdf = np.cumsum(
            [config.near_fraction, config.mid_fraction, config.far_fraction])
        self.class_cdf /= self.class_cdf[-1]
        self.health = np.full(n, SUSCEPTIBLE, dtype=np.int8)
        self.day_infected = np.full(n, -1, dtype=np.int32)
        self.asymptomatic = self.nprng.random(n) < config.asymptomatic_fraction
        self.quarantined = np.zeros(n, dtype=bool)
        self.known_carrier = np.zeros(n, dtype=bool)
        self.adopter = np.zeros(n, dtype=bool)

        adopters = sorted(self.rng.sample(range(n), round(n * config.adoption_fraction)))
        self.adopter[adopters] = True
        self.devices = {
            a: Device(log=ContactLog(retention_days=config.retention_days))
            for a in adopters
        }
        # {date: that day's one draw of identifiers}, over the retention
        # window. The i-th device in `devices` order broadcasts bytes
        # `RDI_BYTES * i` to `RDI_BYTES * (i + 1)` (`_identifier`).
        self.identifiers = {}
        # Index agent -> infections it caused: the sample of empirical_r0.
        self.index_infections = {}
        for a in self.rng.sample(range(n), min(config.index_cases, n)):
            self.health[a] = EXPOSED
            self.day_infected[a] = 0
            self.index_infections[a] = 0

        key, self.public_key = generate_keypair(self.rng)
        self.authority = AuthorityState(
            signing_key=key, trace_contact_derived=config.trace_contact_derived
        )
        # {due_day: [(kind, agent, token)]}, each list in scheduling order.
        # Tests are scheduled for today or later and today's are drained the
        # same day, so every key is today or later while a day runs and
        # later than the day just stepped between days. A "case" test is
        # pending exactly while its case awaits a test result, so these
        # entries are also the simulator's only token -> agent map.
        self.pending_tests = {}

        self.metrics = {key: [] for key in SERIES}

    # -- helpers ----------------------------------------------------------

    def _log_event(self, day, kind, subject, obj, detail):
        """Log a day-resolved event; its tick column is 0."""
        if self.record_events:
            self.day_lines.append(f"{day},0,{kind},{subject},{obj},{detail}")

    def _schedule_test(self, due_day, kind, agent, token):
        self.pending_tests.setdefault(due_day, []).append((kind, agent, token))

    def _identifier(self, date, i):
        """The identifier that the i-th device in `devices` order broadcast
        on `date`."""
        return self.identifiers[date][RDI_BYTES * i:RDI_BYTES * (i + 1)]

    def _register_positive(self, agent, day):
        """Carrier registration, once per agent: the device uploads its
        contact history and its own broadcast identifiers for the lookback
        window. A call for a known carrier does nothing.

        The agent always holds a device: self tests are scheduled only for
        adopters and case tests only for device holders. The upload is
        never stale: `export_history(start, day)` holds no record dated
        before `start`, so `register_carrier` cannot raise `StaleHistory`.
        """
        if self.known_carrier[agent]:
            return
        self.known_carrier[agent] = True
        log = self.devices[agent].log
        start = day - self.config.lookback_days
        history = log.export_history(start, day)
        # Devices are keyed in agent order, so the adopters below `agent`
        # give its position. The table is written in ascending date order.
        i = int(np.count_nonzero(self.adopter[:agent]))
        own = [(date, self._identifier(date, i))
               for date in self.identifiers if date >= start]
        self.authority.register_carrier(history, start, own_identifiers=own, today=day)
        # The carrier's own upload must not trigger inquiries back at the
        # carrier when contact-derived entries get published.
        log.mark_acted(history)
        self._log_event(day, "register", agent, "-", f"records={len(history)}")

    # -- daily step -------------------------------------------------------

    def _sample_events(self):
        """Draw the day's contact events that matter as parallel int64 arrays
        `(src, dst, cls, start, dur)` and a bool array `transmit` marking the
        events that can transmit. A population below two has no pairs and
        draws no events.

        Each agent sends a Poisson count of events a day, at
        `contacts_per_day` scaled by the leak while it is quarantined, each
        to a uniform partner; a self-draw moves to the next agent. An event
        matters when both partners are adopters, so both devices log it, or
        when the partners' `TRANSMISSION_ROLE`s XOR to 3, so it can transmit.
        No other event changes a run. Call an agent active when it is an
        adopter or infectious. The day's process is split by sender into two
        independent Poisson processes, and only these are drawn:

        1. Every active agent's outgoing events: a count per agent and a
           partner per event, as for every agent before the split. The
           events that matter are kept.
        2. Every infectious agent's incoming events from susceptible senders
           that are not active. A sender that is not active is neither an
           adopter nor infectious, so this is the only way its event can
           matter, and every such event can transmit. They reach receiver
           `b` at rate `(W + w[b-1]) / n`, where `W` is the summed rate of
           those senders and `w[b-1]` the rate of `b - 1` if it is one,
           whose self-draws also land on `b`. Each event's sender is drawn
           in proportion to its rate, `b - 1` counting twice.

        The generator is drawn in this order: part 1's counts (poisson) and
        partners (integers), part 2's counts (poisson) and senders (random),
        then for every returned event the quarantine-leak uniforms (random),
        durations (standard_exponential, or geometric), distance classes
        (random) and start ticks (integers). The attributes are i.i.d. and
        independent of the partners, so giving them to the returned events
        only leaves the law of a run unchanged. At full adoption every agent
        is active: part 2 has no sender, its Poisson rates are zero, numpy
        draws nothing for them, and the stream is that of a sampler that
        draws every event and gives each attributes. That order is the
        stream contract `tests/test_pin.py` guards, so a change to it
        changes every run's outputs. Part 2 runs only on a day with an
        infectious agent: with no receiver numpy would draw nothing for it.

        These passes run over the whole population: the one role gather,
        `TRANSMISSION_ROLE.take(health)`, and the masks and scans taken from
        it (with no device the infectious agents are the only active ones,
        so part 1 reuses part 2's receiver scan); the contact-rate
        `np.where` on a day with someone quarantined (any other day reads
        `free_rate`); and, on a day with an infectious agent, part 2's
        sender mask and its scan. The rest works on the active agents, on
        part 2's senders or on the drawn events.

        Part 2 draws a sender by a right-sided search for a uniform below
        the senders' total rate in their running sums, taken in agent
        order. On a day with nobody quarantined every rate is equal, so
        these are a prefix of `free_running`, built once; on any other day,
        the `cumsum` of the senders' rates. They are the very floats that a
        running sum over the population, zero at every other agent, holds
        at each sender (`cumsum` adds from left to right, and adding 0.0
        changes no float), so the draws are those of a search over it.

        Events are returned part 1 first, in sender order, then part 2, in
        receiver order. A target that two transmitting events infect on one
        day is credited to the first (`_transmit`). Putting part 1
        first favours no infector: every infector is active, and its event
        with a susceptible partner in the same quarantine state is outgoing
        or incoming with equal chance, so credit stays exchangeable between
        infectors.

        The class and duration draws are numpy's own `choice(3, p=...)` and
        `geometric` without their per-call overhead: a uniform compared
        against the normalised cumulative mix, and the exponential inversion
        `geometric` uses for p < 1/3. At p >= 1/3, that is a mean of three
        ticks or less, numpy's `geometric` draws by a search instead, which
        consumes the stream differently, so it is called as it is.
        """
        cfg = self.config
        n = cfg.population
        if n < 2 or cfg.contacts_per_day == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, empty, empty, np.zeros(0, dtype=bool)
        rng = self.nprng
        lam = self.free_rate
        if self.quarantined.any():
            lam = np.where(self.quarantined,
                           cfg.contacts_per_day * cfg.quarantine_leak,
                           cfg.contacts_per_day)
        role = TRANSMISSION_ROLE.take(self.health)
        infectious = role == 1
        receivers = np.flatnonzero(infectious)
        # 1. Active agents' outgoing events. With no device the infectious
        #    agents are the only active ones.
        senders = np.flatnonzero(self.adopter | infectious) if self.devices else receivers
        src = np.repeat(senders, rng.poisson(lam[senders]))
        m = len(src)
        dst = rng.integers(0, n, m, dtype=np.int64)
        clash = dst == src
        dst[clash] = (dst[clash] + 1) % n
        transmit = (role[src] ^ role[dst]) == 3
        matters = transmit
        if self.devices:
            matters = transmit | (self.adopter[src] & self.adopter[dst])
        if np.count_nonzero(matters) < m:  # else, as at full adoption, skip the copy
            src, dst, transmit = src[matters], dst[matters], transmit[matters]
        # 2. Infectious agents' incoming events from inactive susceptible
        #    senders, each picked by a search of their running rate sums
        #    (above); zero rates leave the sums flat, and a right-sided
        #    search never picks them. With no receiver, numpy would draw
        #    nothing here.
        if len(receivers):
            inactive = (role == 2) & ~self.adopter
            senders = np.flatnonzero(inactive)
            running = (self.free_running[:len(senders)] if lam is self.free_rate
                       else np.cumsum(lam[senders]))
            total = running[-1] if len(senders) else 0.0
            before = (receivers - 1) % n
            mass = np.where(inactive[before], lam[before], 0.0) + total
            incoming = rng.poisson(mass / n)
            pick = rng.random(int(incoming.sum())) * np.repeat(mass, incoming)
            origin = np.repeat(before, incoming)
            below = pick < total
            origin[below] = senders[np.searchsorted(running, pick[below], side="right")]
            src = np.concatenate((src, origin))
            dst = np.concatenate((dst, np.repeat(receivers, incoming)))
            transmit = np.concatenate((transmit, np.ones(len(pick), dtype=bool)))
        k = len(src)
        # An event with a quarantined partner happens with the leak
        # probability; the draw is made whether or not anyone is quarantined.
        drop = self.quarantined[dst] & (rng.random(k) >= cfg.quarantine_leak)
        p = 1.0 / cfg.duration_mean_ticks
        if p < 1 / 3:
            # Clipped before the int cast, which a long mean's draws overflow.
            ticks = np.ceil(rng.standard_exponential(k) / -math.log1p(-p))
            dur = np.minimum(ticks, TICKS_PER_DAY).astype(np.int64)
        else:
            dur = np.minimum(rng.geometric(p, k), TICKS_PER_DAY)
        cdf = self.class_cdf
        uniform = rng.random(k)
        cls = (uniform >= cdf[0]).astype(np.int64) + (uniform >= cdf[1])
        start = rng.integers(0, TICKS_PER_DAY, k, dtype=np.int64)
        np.minimum(start, TICKS_PER_DAY - dur, out=start)
        if not drop.any():
            return src, dst, cls, start, dur, transmit
        keep = ~drop
        return src[keep], dst[keep], cls[keep], start[keep], dur[keep], transmit[keep]

    def _rotate(self, day):
        """Draw the day's identifiers, one draw for every device in device
        order, and prune every device's log. Days step by one from 0, so
        only one date of the table ages out."""
        self.identifiers[day] = self.rng.randbytes(RDI_BYTES * len(self.devices))
        self.identifiers.pop(day - self.config.retention_days - 1, None)
        for dev in self.devices.values():
            dev.log.prune(day)

    def _transmit(self, day):
        """The day's contact events: the devices log the ones between
        adopters (`_exchange_beacons`), and the ones that can transmit
        infect with `infection_probability`. A target that two events infect
        is credited to the first. Returns the number of new infections."""
        src, dst, cls, start, dur, transmit = self._sample_events()
        if self.devices and len(src):
            self._exchange_beacons(day, src, dst, cls, start, dur)
        idx = np.flatnonzero(transmit)
        near = np.where(cls[idx] == 0, dur[idx], 0)
        mid = np.where(cls[idx] == 1, dur[idx], 0)
        probs = infection_probability(near, mid, self.config.p_transmit)
        hit = idx[self.nprng.random(len(idx)) < probs]
        health = self.health
        new_infections = 0
        for a, b in zip(src[hit].tolist(), dst[hit].tolist()):
            target, infector = (a, b) if health[a] == SUSCEPTIBLE else (b, a)
            if health[target] != SUSCEPTIBLE:
                continue  # already infected earlier today
            health[target] = EXPOSED
            self.day_infected[target] = day
            if infector in self.index_infections:
                self.index_infections[infector] += 1
            self._log_event(day, "infect", infector, target, "")
            new_infections += 1
        return new_infections

    def _exchange_beacons(self, day, src, dst, cls, start, dur):
        """Both devices of every adopter-to-adopter contact event today log
        each other through the real beacon codec and contact log, and each
        such event adds a `contact` line to the event log.

        A device's identifier is fixed for the day, its slice of
        `identifiers[day]`, so each beacon goes through the codec once per
        device, and each distance class is estimated from its
        representative power once per day. The received identifiers and the
        logs sit in object arrays indexed by agent, so each call's arguments
        are gathered by position, source's call then destination's for each
        event in sampled order: overlapping spans of one pair resolve by
        first claim. `map` runs the calls in C; it is handed
        `ContactLog.observe_span`, looked up through the class once per
        day, so a wrapper set on the class still sees every call. The
        columns are lists of Python objects, so every call gets exactly the
        ints, classes and bytes a per-event loop would pass; the
        identifiers are held as objects, since a bytes array drops trailing
        NUL bytes.

        The `contact` lines follow the events' order. Each column's text is
        looked up by value in its table in `line_tables`, and one join of
        the gathered pieces makes the day's `contact` text.
        """
        ids = self.identifiers[day]
        rdis = np.empty(len(self.adopter), dtype=object)
        rdis[self.adopter] = [
            decode_beacon(encode_beacon(DailyIdentifier(ids[k:k + RDI_BYTES], day)))
            for k in range(0, len(ids), RDI_BYTES)]
        logs = np.empty(len(self.adopter), dtype=object)
        logs[self.adopter] = [dev.log for dev in self.devices.values()]
        observed = np.array([estimate_distance_class(CLASS_RSSI_DBM[c], TX_POWER_DBM)
                             for c in DistanceClass], dtype=object)
        both = self.adopter[src] & self.adopter[dst]
        table = np.stack((start, src, dst, cls, dur), axis=1)[both]
        # Two calls per event: its partners cross as receiver and sender,
        # and its other columns repeat.
        pairs = table[:, 1:3]
        deque(map(ContactLog.observe_span, logs[pairs.ravel()].tolist(),
                  rdis[pairs[:, ::-1].ravel()].tolist(),
                  observed[table[:, 3].repeat(2)].tolist(), repeat(day),
                  table[:, 0].repeat(2).tolist(), table[:, 4].repeat(2).tolist()), maxlen=0)
        if self.record_events and len(table):
            ticks, agents, classes, durations = self.line_tables
            pieces = np.empty((len(table), 6), dtype=object)
            pieces[:, 0] = f"{day},"
            pieces[:, 1] = ticks[table[:, 0]]
            pieces[:, 2:4] = agents[table[:, 1:3]]
            pieces[:, 4] = classes[table[:, 3]]
            pieces[:, 5] = durations[table[:, 4]]
            # The last line's end is dropped: `step_day` joins the day's
            # texts by "\n".
            self.day_lines.append("".join(pieces.ravel().tolist())[:-1])

    def _run_due_tests(self, day):
        cfg = self.config
        tests = self.pending_tests.pop(day, ())
        for kind, agent, token in tests:
            infected = EXPOSED <= self.health[agent] <= SYMPTOMATIC
            result = "positive" if infected else "negative"
            self._log_event(day, "test", agent, "-", f"{kind}:{result}")
            if kind == "self":
                if infected:
                    self._register_positive(agent, day)
                continue
            case, msgs = casework.step(
                self.authority.cases[token],
                MailboxMessage(token, MessageKind.TEST_RESULT,
                               {"result": result, "date": day}),
                today=day,
            )
            for msg in msgs:
                if msg.kind == MessageKind.HISTORY_REQUEST:
                    self._register_positive(agent, day)
                    casework.step(
                        case,
                        MailboxMessage(token, MessageKind.HISTORY_UPLOAD, {}),
                        today=day,
                    )
                elif msg.kind == MessageKind.RELEASE:
                    self._log_event(day, "release", agent, "-", "")
            # A retest is a new test event: due the next day at the earliest.
            # Only a negative result leaves the case awaiting a second test.
            if case.state == CaseState.AWAITING_TEST2:
                self._schedule_test(day + max(1, cfg.incubation_days),
                                    "case", agent, token)
        return len(tests)

    def _publish(self, day):
        """Publish the day's list and log its size. In a world with devices
        the list is signed and every device matches it
        (`_match_and_inquire`); a world without signs nothing. Returns the
        list size."""
        if not self.devices:
            size = len(self.authority.list_entries(day))
            self._log_event(day, "publish", "-", "-", f"entries={size}")
            return size
        lst = self.authority.publish(day)
        self._log_event(day, "publish", "-", "-", f"entries={len(lst.entries)}")
        self._match_and_inquire(day, lst)
        return len(lst.entries)

    def _match_and_inquire(self, day, lst):
        """Every device matches the signed list against its own log, in
        ascending agent order; new hits open inquiries, which are
        categorized and ordered for testing."""
        cfg = self.config
        verified = verify_list(lst, self.public_key)
        index = matching.build_index(lst, verified)
        if len(index) == 0:
            return
        traced = cfg.traced_categories
        for agent, dev in self.devices.items():
            new = dev.log.mark_acted(matching.match_contacts(dev.log, index))
            for h in new:
                self._log_event(day, "hit", agent, "-", f"date={h.date}")
            if not new or self.known_carrier[agent]:
                continue  # a registered carrier needs no inquiry
            _, msgs = casework.on_hits(new, "negotiate", self.rng)
            for msg in msgs:
                case = casework.CaseRecord(
                    token=msg.token,
                    incubation_days=cfg.incubation_days,
                    lookback_days=cfg.lookback_days,
                )
                case, _ = casework.step(case, msg, today=day)
                self.authority.cases[msg.token] = case
                case, [reply] = casework.categorize(
                    case, case.summary, traced_categories=traced, today=day,
                )
                if reply.kind == MessageKind.TEST_ORDER:
                    self._schedule_test(day + cfg.test_delay_days,
                                        "case", agent, msg.token)
                    self._log_event(day, "case", agent, "-", case.category.value)
                else:
                    self._log_event(day, "drop", agent, "-", "")

    def _progress(self, day):
        """Disease progression: exposed agents turn infectious after
        `latency_days`, infectious ones that are not asymptomatic turn
        symptomatic after `symptom_onset_days`, and every infected agent is
        removed after `course_days`, each counted from its infection day.
        Returns the agents infected afterwards and those that turned
        symptomatic, both ascending.

        Finding the infected agents is this phase's one pass over the
        population; the active-case count and tomorrow's quarantine flags
        then work on that set, since no later phase changes health. An
        infected code with no infection day (-1), as a test may write one,
        counts its days from -1 and is never removed."""
        cfg = self.config
        health = self.health
        # The infected codes are contiguous, so a range compare is a set test.
        infected = np.flatnonzero((health >= EXPOSED) & (health <= SYMPTOMATIC))
        codes = health[infected]
        since = self.day_infected[infected]
        t = day - since
        removed = (since >= 0) & (t >= cfg.course_days)
        codes[removed] = REMOVED
        codes[(codes == EXPOSED) & (t >= cfg.latency_days)] = INFECTIOUS
        symptomatic = ((codes == INFECTIOUS) & (t >= cfg.symptom_onset_days)
                       & ~self.asymptomatic[infected])
        codes[symptomatic] = SYMPTOMATIC
        health[infected] = codes
        return infected[~removed], infected[symptomatic]

    def _self_present(self, day, symptomatic):
        """The newly symptomatic adopters that are not known carriers
        self-present for testing."""
        for agent in symptomatic.tolist():
            if self.adopter[agent] and not self.known_carrier[agent]:
                self._schedule_test(day + self.config.test_delay_days, "self", agent, None)
                self._log_event(day, "symptom", agent, "-", "")

    def _refresh_quarantine(self, sick):
        """Set tomorrow's quarantine flags: the infected agents `sick` that
        are known carriers, and every agent with a case test pending."""
        self.quarantined.fill(False)
        self.quarantined[sick] = self.known_carrier[sick]
        for tests in self.pending_tests.values():
            for kind, agent, _ in tests:
                if kind == "case":
                    self.quarantined[agent] = True

    def step_day(self) -> "World":
        """Run one protocol day as its phases, in order, then record the
        day's metrics and event text."""
        day = self.day
        self._rotate(day)
        new_infections = self._transmit(day)
        sick, newly_symptomatic = self._progress(day)
        self._self_present(day, newly_symptomatic)
        tests_used = self._run_due_tests(day)
        list_size = self._publish(day)
        # A second drain runs the zero-delay test orders issued today.
        tests_used += self._run_due_tests(day)
        self.authority.erase_expired(day)
        self._refresh_quarantine(sick)
        row = (new_infections, len(sick), int(np.count_nonzero(self.quarantined)),
               tests_used, list_size)
        for key, value in zip(SERIES, row):
            self.metrics[key].append(value)
        if self.record_events:
            self.events.append("\n".join(self.day_lines))
            self.day_lines.clear()
        self.day += 1
        return self


def run(config: ScenarioConfig, seed: int = None,
        record_events: bool = False) -> MetricsReport:
    """Initialize a world, step it for the configured number of days, and
    return the metrics report. Stops early once the epidemic is extinct and
    no casework remains, padding the series with zeros."""
    world = World(config, seed=seed, record_events=record_events)
    days = config.days
    for _ in range(days):
        world.step_day()
        if (world.metrics["active_cases"][-1] == 0
                and not world.pending_tests):
            break
    for series in world.metrics.values():
        series.extend([0] * (days - len(series)))
    return finalize_report(world)


def finalize_report(world: World) -> MetricsReport:
    cfg = world.config
    n = cfg.population
    ever_infected = int(np.count_nonzero(world.day_infected >= 0))
    attack_rate = ever_infected / n if n else 0.0
    caused = world.index_infections.values()
    empirical_r0 = sum(caused) / len(caused) if caused else 0.0
    return MetricsReport(
        population=n,
        days=cfg.days,
        latency_days=cfg.latency_days,
        attack_rate=attack_rate,
        empirical_r0=empirical_r0,
        extinction_day=_first_day_without_cases(world.metrics["active_cases"]),
        events=world.events,
        **world.metrics,
    )


def estimate_R_effective(report: MetricsReport):
    """Ratio-of-new-infections estimator over one generation interval.

    Returns [(day, R)] for each day where the trailing window saw at least
    one infection. The generation interval is latency plus two days; a
    series shorter than a week is rejected.
    """
    new = report.new_infections
    window_days = 7
    if len(new) < window_days:
        raise InsufficientData(
            f"need at least {window_days} days of data, have {len(new)}"
        )
    g = report.latency_days + 2
    series = []
    for t in range(g, len(new) - g + 1):
        denom = sum(new[t - g : t])
        if denom > 0:
            series.append((t, sum(new[t : t + g]) / denom))
    return series


def calibrate_p_transmit(config: ScenarioConfig, target_r0: float) -> float:
    """Bisect the per-tick transmission probability until the Monte-Carlo
    estimate of mean secondary infections of index cases hits `target_r0`.

    Each probe is 20 untraced runs (no adopters) of `course_days + 1` days.
    Index cases are infected on day 0 and removed by `_progress` on day
    `course_days`, after that day's `_transmit`, the last in which one can
    transmit. `empirical_r0` counts only their infections, so a longer run
    would return the same estimate.
    """
    if not (math.isfinite(target_r0) and target_r0 >= 0):
        raise InvalidConfig([f"target_r0 must be finite and >= 0, got {target_r0}"])
    config.validate()
    tolerance, runs_per_probe, max_steps = 0.1, 20, 30
    if target_r0 == 0:
        return 0.0
    base = replace(config, adoption_fraction=0.0, days=config.course_days + 1)

    def estimate(p):
        return sum(
            run(replace(base, p_transmit=p, seed=config.seed * 100003 + k)).empirical_r0
            for k in range(runs_per_probe)
        ) / runs_per_probe

    lo = 0.0
    hi = 0.02
    hi_value = estimate(hi)
    steps = 1
    # Doubling from 0.02 reaches p=1 on the 7th probe, well inside the budget.
    while hi_value < target_r0:
        if hi >= 1.0:
            raise NoConvergence(
                f"R0 estimate {hi_value:.3f} below target {target_r0} at p=1"
            )
        hi = min(1.0, hi * 2)
        hi_value = estimate(hi)
        steps += 1
    while steps < max_steps:
        mid = (lo + hi) / 2
        value = estimate(mid)
        steps += 1
        if abs(value - target_r0) <= tolerance:
            return mid
        if value < target_r0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(f"no convergence after {max_steps} probes")
