"""The benchmark's three seeded workloads.

Each workload builds its start state in its constructor (that is the
set-up the benchmark times), then `run(clock)` executes the timed body,
checks the outputs, and returns an `Outcome`. The timed body calls tracenet
only through module attributes and class methods, so the tracer can wrap
those calls from outside. Correctness checks call the functions bound below
at import time, before any wrapper exists, so they never show up in a trace.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import shutil
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, replace

from tracenet import authority, casework, cli, ident, matching, simnet
from tracenet.authority import AuthorityState, Malformed, StaleHistory
from tracenet.authority import deserialize_list as _deserialize_unwrapped
from tracenet.authority import verify_list as _verify_unwrapped
from tracenet.casework import MailboxMessage, MessageKind
from tracenet.contact_log import TICKS_PER_DAY, ContactLog
from tracenet.matching import brute_force_match

# What `calibrate_p_transmit` returns for the acceptance suite's
# CALIBRATION_CONFIG. Fixed here so no workload ever recalibrates.
CALIBRATED_P = 0.00109375

# The acceptance suite's calibration scenario (tests/test_acceptance.py).
CALIBRATION_CONFIG = simnet.ScenarioConfig(
    population=10_000, days=150, seed=1234, adoption_fraction=0.0, index_cases=10)


@dataclass
class Outcome:
    """What one repetition of a workload did and whether it was right."""

    unit_ms: list  # duration of every timed unit of the body, in order
    op_units: list  # indices into unit_ms of the units that are operations
    attempted: int
    failed: int
    errors: list
    counts: dict  # exact work counts; identical for identical (code, seed)
    digest: dict  # SHA-256 of the behaviour; identical for identical (code, seed)
    layers: dict  # per-layer values the workload computes itself


class Clock:
    """Times the body as a sequence of units: each operation (a simulated
    day, a `run` call, a device check) and each stretch of work between
    operations. The same seed gives the same sequence, so repetitions can
    be compared unit by unit. Each unit gets the next run id, which the
    tracer stamps on every span recorded inside it; spans outside any unit
    get run id 0."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.bounds = []  # (start, end) of each unit, perf_counter_ns
        self.op_units = []

    def start(self) -> int:
        if self.tracer is not None:
            self.tracer.run_id = len(self.bounds) + 1
        return time.perf_counter_ns()

    def stop(self, started: int, op: bool = False) -> None:
        ended = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.run_id = 0  # spans outside the timed units
        if op:
            self.op_units.append(len(self.bounds))
        self.bounds.append((started, ended))

    @property
    def unit_ms(self) -> list:
        return [(end - start) / 1e6 for start, end in self.bounds]

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.bounds) / 1e9

    def outcome(self, attempted, failed, errors, counts, digest, layers):
        return Outcome(self.unit_ms, self.op_units, attempted, failed, errors,
                       counts, digest, layers)


def bytes_per_record(logs) -> float:
    """Computed footprint of one contact record: tracemalloc's count of the
    bytes allocated when a sample of logs' record tables is rebuilt by a
    pickle round trip (dict slot, key tuple, record, sets, ints, rdi)."""
    tables = [log.records for log in logs]
    n = sum(len(t) for t in tables)
    if n == 0:
        return 0.0
    blob = pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = pickle.loads(blob)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del copy
    return allocated / n


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _failure() -> str:
    return traceback.format_exc(limit=8)


class TracedSimulation:
    """`traced_1k`: the criterion-10 traced scenario, stepped a fixed number
    of days and written out as `tracenet simulate` writes it."""

    # How much of the host's slowdown this workload feels (speed.py):
    # fit_sensitivity.py over seeds 201 to 203, 297 unit samples at
    # slowdowns of 1.1 to 1.9, gave 0.651.
    SENSITIVITY = 0.65

    def __init__(self, seed: int, smoke: bool, scratch: str):
        size = dict(population=100, days=8) if smoke else dict(population=1000, days=30)
        self.config = simnet.ScenarioConfig(
            index_cases=3, adoption_fraction=1.0, test_delay_days=0,
            categories_traced="cat1+cat2", p_transmit=CALIBRATED_P, **size)
        self.world = simnet.World(self.config, seed, record_events=True)
        self.scratch = scratch

    def run(self, clock: Clock) -> Outcome:
        days = self.config.days
        out = tempfile.mkdtemp(dir=self.scratch, prefix="traced_1k-")
        errors = []
        completed = 0
        csv_text = events_text = ""
        try:
            # Fixed days, not simnet.run: run stops at extinction, so a change
            # to the RNG stream would change how much work is measured.
            for _ in range(days):
                op = clock.start()
                self.world.step_day()
                clock.stop(op, op=True)
                completed += 1
            seg = clock.start()
            report = simnet.finalize_report(self.world)
            csv_text = report.to_csv()
            events_text = "".join(line + "\n" for line in report.events)
            cli.atomic_write(os.path.join(out, "metrics.csv"), csv_text)
            cli.atomic_write(os.path.join(out, "events.log"), events_text)
            clock.stop(seg)
        except Exception:
            errors.append(_failure())

        metrics = self.world.metrics
        lengths = {key: len(series) for key, series in metrics.items()}
        if set(lengths.values()) != {days}:
            errors.append(f"series lengths {lengths} != {days} days")
        good_days = min(completed, *lengths.values())
        for name, text in (("metrics.csv", csv_text), ("events.log", events_text)):
            if text and _read(os.path.join(out, name)) != text:
                errors.append(f"{name} on disk differs from the report")
        shutil.rmtree(out, ignore_errors=True)

        kinds = {}
        for line in events_text.splitlines():
            kind = line.split(",", 3)[2]
            kinds[kind] = kinds.get(kind, 0) + 1
        live = sum(len(dev.log.records) for dev in self.world.devices.values())
        counts = {
            "spans_logged": 2 * kinds.get("contact", 0),
            "live_records": live,
            "list_entries": sum(metrics["list_size"]),
            "hits": kinds.get("hit", 0),
            "inquiries": kinds.get("case", 0) + kinds.get("drop", 0),
            "tests_used": sum(metrics["tests_used"]),
            "run_calls": 0,
        }
        digest = {
            "metrics_csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "events_log_sha256": hashlib.sha256(events_text.encode()).hexdigest(),
        }
        return clock.outcome(days, days - good_days, errors, counts, digest,
                             {"contact_log.live_records": live})

    def record_sample(self):
        devices = list(self.world.devices.values())
        return [dev.log for dev in devices[: max(1, len(devices) // 16)]]


class CalibrationProbe:
    """`calib_probe`: one probe of the calibration search, as
    `calibrate_p_transmit` runs it. No devices exist, so the tracing stack
    is bypassed and the numpy contact sampler carries the time."""

    # How much of the host's slowdown this workload feels (speed.py):
    # fit_sensitivity.py over seeds 201 to 203, 304 unit samples at
    # slowdowns of 1.1 to 1.9, gave 0.699.
    SENSITIVITY = 0.7

    def __init__(self, seed: int, smoke: bool, scratch: str):
        cfg = CALIBRATION_CONFIG
        probe_days = cfg.latency_days + cfg.course_days + 2
        self.runs = 2 if smoke else 20
        self.base = replace(cfg, adoption_fraction=0.0, days=probe_days,
                            p_transmit=CALIBRATED_P,
                            population=1000 if smoke else cfg.population)
        self.seed = seed

    def run(self, clock: Clock) -> Outcome:
        errors = []
        failed = 0
        sha = hashlib.sha256()
        for k in range(self.runs):
            config = replace(self.base, seed=self.seed * 100003 + k)
            op = clock.start()
            try:
                report = simnet.run(config)
            except Exception:
                clock.stop(op, op=True)
                errors.append(_failure())
                failed += 1
                continue
            clock.stop(op, op=True)
            lengths = {len(getattr(report, key)) for key in
                       ("new_infections", "active_cases", "quarantined",
                        "tests_used", "list_size")}
            if lengths != {config.days}:
                errors.append(f"run {k}: series lengths {lengths} != {config.days}")
                failed += 1
            sha.update(report.to_csv().encode())
        counts = dict.fromkeys(("spans_logged", "live_records", "list_entries",
                                "hits", "inquiries", "tests_used"), 0)
        counts["run_calls"] = self.runs - failed
        return clock.outcome(self.runs, failed, errors, counts,
                             {"metrics_csv_sha256": sha.hexdigest()},
                             {"contact_log.live_records": 0})

    def record_sample(self):
        return []


class _Device:
    __slots__ = ("log", "current", "ids", "handled", "carrier", "positive")

    def __init__(self, retention_days):
        self.log = ContactLog(retention_days=retention_days)
        self.current = None
        self.ids = {}  # date -> own rdi
        self.handled = set()  # (date, rdi) hits already reacted to
        self.carrier = False
        self.positive = False


class ProtocolDay:
    """`protocol_day`: the device and authority half of the protocol at
    population scale, with no epidemic. Every device checks every published
    list from its serialized bytes, as the paper's phones do."""

    # How much of the host's slowdown this workload feels (speed.py):
    # fit_sensitivity.py over seeds 201 to 203, 25496 unit samples at
    # slowdowns of 1.0 to 1.8, gave 1.015.
    SENSITIVITY = 1.0

    RETENTION_DAYS = 21
    LOOKBACK_DAYS = 5
    INCUBATION_DAYS = 5
    # Share of case tests that come back positive. The simulator decides a
    # test by the agent's true health; with no epidemic here, this is the
    # share it produced on `traced_1k` (seeds 1 to 5, 30 days each: 5 positive
    # of 3373 case tests).
    P_POSITIVE = 5 / 3373
    TAMPER_FLIPS = 8
    CHECK_SAMPLES = 3  # device checks per epoch compared with the oracle

    def __init__(self, seed: int, smoke: bool, scratch: str):
        if smoke:
            self.n_devices, self.sightings, history_days, self.epochs = 30, 8, 4, 2
            self.carriers = [3, 5]
        else:
            self.n_devices, self.sightings, history_days, self.epochs = 300, 30, 21, 7
            # 20 to 40 new carriers a day, as a fixed ramp: the seed picks who,
            # not how many, so the amount of work does not depend on the seed.
            self.carriers = [20 + round(20 * e / (self.epochs - 1))
                             for e in range(self.epochs)]
        self.rng = random.Random(seed)
        key, self.public_key = authority.generate_keypair(self.rng)
        self.auth = AuthorityState(signing_key=key, trace_contact_derived=False)
        self.devices = [_Device(self.RETENTION_DAYS) for _ in range(self.n_devices)]
        self.pending = []  # [(due day, token, device)]
        for day in range(history_days):
            self._log_day(day, self._plan_day(day))
        self.first_day = history_days

    def _plan_day(self, day):
        """Draw one day of sightings: (observer, observed, rssi, start tick,
        ticks). This is input generation, so the body draws it outside the
        timed units."""
        rng = self.rng
        near, mid, far = (simnet.CLASS_RSSI_DBM[c] for c in ident.DistanceClass)
        last = self.n_devices - 1
        plan = []
        for i in range(self.n_devices):
            for _ in range(self.sightings):
                j = rng.randrange(last)
                j += j >= i
                u = rng.random()
                rssi = near if u < 0.5 else mid if u < 0.8 else far
                start = rng.randrange(TICKS_PER_DAY)
                n_ticks = min(1 + int(rng.expovariate(1 / 12)), TICKS_PER_DAY - start)
                plan.append((i, j, rssi, start, n_ticks))
        return plan

    def _log_day(self, day, plan) -> int:
        """Every device prunes its log, rotates its identifier and logs the
        planned sightings through the beacon codec; returns the number of
        spans logged."""
        devices = self.devices
        for dev in devices:
            dev.log.prune(day)
            if dev.current is None:
                dev.current = ident.generate_daily_identifier(self.rng, day)
            else:
                dev.current = ident.rotate_if_needed(dev.current, day, self.rng)
            dev.ids[day] = dev.current.rdi
            dev.ids.pop(day - self.RETENTION_DAYS - 1, None)
        for i, j, rssi, start, n_ticks in plan:
            rdi = ident.decode_beacon(ident.encode_beacon(devices[j].current))
            cls = ident.estimate_distance_class(rssi, simnet.TX_POWER_DBM)
            devices[i].log.observe_span(rdi, cls, day, start, n_ticks)
        return len(plan)

    def _register_carriers(self, epoch, day):
        fresh = [d for d in self.devices if not d.carrier and not d.positive]
        chosen = self.rng.sample(fresh, min(self.carriers[epoch], len(fresh)))
        chosen += [d for d in self.devices if d.positive and not d.carrier]
        start = day - self.LOOKBACK_DAYS
        stale = 0
        for dev in chosen:
            history = dev.log.export_history(start, day)
            own = sorted((d, rdi) for d, rdi in dev.ids.items() if d >= start)
            try:
                self.auth.register_carrier(history, start, own_identifiers=own, today=day)
            except StaleHistory:
                # Every upload covers exactly the window it is checked
                # against, so a rejection here is a bug, not traffic.
                stale += 1
            dev.carrier = True
            dev.positive = False
        return stale

    def _device_check(self, dev, data, day):
        """One device's daily check, from list bytes to its hit reaction."""
        lst = authority.deserialize_list(data)
        verified = authority.verify_list(lst, self.public_key)
        index = matching.build_index(lst, verified)
        hits = matching.match_contacts(dev.log, index)
        new = [h for h in hits if (h.date, h.rdi) not in dev.handled]
        inquiries = 0
        if new:
            dev.handled.update((h.date, h.rdi) for h in new)
            if not dev.carrier:
                _, messages = casework.on_hits(new, "negotiate", self.rng)
                for msg in messages:
                    self._open_case(casework.serialize_message(msg), dev, day)
                inquiries = len(messages)
        return lst, hits, len(new), inquiries

    def _open_case(self, wire, dev, day):
        """Authority side of an inquiry: decode the mailbox message, open
        the case, and categorize it; a test order schedules a result."""
        opened, _ = casework.deserialize_message(wire)
        case = casework.CaseRecord(token=opened.token)
        casework.step(case, opened, today=day)
        self.auth.cases[case.token] = case
        case, out = casework.categorize(case, case.summary, today=day)
        if any(reply.kind == MessageKind.TEST_ORDER for reply in out):
            self.pending.append((day + 1, case.token, dev))

    def _deliver_results(self, day):
        due = [p for p in self.pending if p[0] <= day]
        self.pending = [p for p in self.pending if p[0] > day]
        used = 0
        for _, token, dev in due:
            case = self.auth.cases.get(token)
            if case is None:
                continue
            result = "positive" if self.rng.random() < self.P_POSITIVE else "negative"
            msg = MailboxMessage(token, MessageKind.TEST_RESULT,
                                 {"result": result, "date": day})
            case, out = casework.step(case, msg, today=day)
            used += 1
            if any(m.kind == MessageKind.HISTORY_REQUEST for m in out):
                # As in the simulator: the device answers the history
                # request, and registers as a carrier next epoch.
                casework.step(case, MailboxMessage(token, MessageKind.HISTORY_UPLOAD),
                              today=day)
                dev.positive = True
            elif case.state == casework.CaseState.AWAITING_TEST2:
                self.pending.append((day + self.INCUBATION_DAYS, token, dev))
        return used

    def _tamper_rejections(self, data):
        """Flip one bit at evenly spaced offsets past the header; each copy
        must fail to parse or fail to verify."""
        rejected = 0
        header = 15
        for k in range(self.TAMPER_FLIPS):
            pos = header + (k * (len(data) - header)) // self.TAMPER_FLIPS
            copy = bytearray(data)
            copy[pos] ^= 1 << (k % 8)
            try:
                bad = _deserialize_unwrapped(bytes(copy))
            except Malformed:
                rejected += 1
                continue
            rejected += not _verify_unwrapped(bad, self.public_key)
        return rejected

    def run(self, clock: Clock) -> Outcome:
        errors = []
        failed = 0
        checks = 0
        sha = hashlib.sha256()
        counts = dict.fromkeys(
            ("spans_logged", "list_entries", "hits", "inquiries", "tests_used"), 0)
        tamper_rejected = tamper_tried = 0
        for epoch in range(self.epochs):
            day = self.first_day + epoch
            seg = clock.start()
            stale = self._register_carriers(epoch, day)
            published = self.auth.publish(day)
            data = authority.serialize_list(published)
            clock.stop(seg)

            if stale:
                errors.append(f"day {day}: {stale} uploads rejected as stale")
            sha.update(data)
            counts["list_entries"] += len(published.entries)
            if not _verify_unwrapped(_deserialize_unwrapped(data), self.public_key):
                errors.append(f"day {day}: published list does not verify")
            tamper_tried += self.TAMPER_FLIPS
            tamper_rejected += self._tamper_rejections(data)

            stride = max(1, self.n_devices // self.CHECK_SAMPLES)
            for i, dev in enumerate(self.devices):
                checks += 1
                op = clock.start()
                try:
                    lst, hits, new, inquiries = self._device_check(dev, data, day)
                except Exception:
                    clock.stop(op, op=True)
                    errors.append(_failure())
                    failed += 1
                    continue
                clock.stop(op, op=True)
                counts["hits"] += new
                counts["inquiries"] += inquiries
                sha.update(b"%d:%d:" % (day, i))
                for h in hits:
                    sha.update(b"%d" % h.date + h.rdi)
                if (i + epoch) % stride == 0:
                    oracle = brute_force_match(dev.log, lst)
                    if [(h.date, h.rdi, id(h.record)) for h in oracle] != \
                            [(h.date, h.rdi, id(h.record)) for h in hits]:
                        errors.append(f"day {day} device {i}: match != oracle")
                        failed += 1

            plan = self._plan_day(day)
            seg = clock.start()
            counts["tests_used"] += self._deliver_results(day)
            self.auth.erase_expired(day)
            counts["spans_logged"] += self._log_day(day, plan)
            clock.stop(seg)

        if tamper_rejected != tamper_tried:
            errors.append(f"{tamper_tried - tamper_rejected} tampered lists accepted")
        for token in sorted(self.auth.cases):
            case = self.auth.cases[token]
            sha.update(token + case.state.value.encode())
        live = sum(len(dev.log.records) for dev in self.devices)
        counts.update(live_records=live, run_calls=0)
        layers = {
            "contact_log.live_records": live,
            "authority.tamper_checks": tamper_tried,
            "authority.tamper_reject_ratio": tamper_rejected / tamper_tried,
        }
        return clock.outcome(checks, failed, errors, counts,
                             {"protocol_sha256": sha.hexdigest()}, layers)

    def record_sample(self):
        return [dev.log for dev in self.devices[: max(1, self.n_devices // 10)]]


WORKLOADS = {
    "traced_1k": TracedSimulation,
    "protocol_day": ProtocolDay,
    "calib_probe": CalibrationProbe,
}
