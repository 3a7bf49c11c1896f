"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s`. The calibration result is
shared between the epidemic criteria so the expensive search runs once.
"""

import copy
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from tracenet import casework
from tracenet.authority import (
    AuthorityState,
    Malformed,
    deserialize_list,
    generate_keypair,
    serialize_list,
    verify_list,
)
from tracenet.casework import CaseRecord, CaseState, MailboxMessage, MessageKind
from tracenet.contact_log import Category, ContactLog, classify
from tracenet.ident import (
    BEACON_MAGIC,
    BadMagic,
    DailyIdentifier,
    DistanceClass,
    UnsupportedVersion,
    WrongLength,
    decode_beacon,
    encode_beacon,
    generate_daily_identifier,
)
from tracenet.matching import brute_force_match, build_index, match_contacts
from tracenet.simnet import (
    ScenarioConfig,
    calibrate_p_transmit,
    estimate_R_effective,
    run,
)


def ok(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {number:02d} {name}{suffix}")


# --- shared calibration ------------------------------------------------------

# Ten index cases per run keep the Monte-Carlo error of the secondary-
# infection estimate manageable (200 draws over 20 seeds instead of 20).
CALIBRATION_CONFIG = ScenarioConfig(population=10_000, days=150, seed=1234,
                                    adoption_fraction=0.0, index_cases=10)
_CACHE = {}


def calibrated_p():
    if "p" not in _CACHE:
        started = time.monotonic()
        _CACHE["p"] = calibrate_p_transmit(CALIBRATION_CONFIG, target_r0=2.15)
        _CACHE["calibration_seconds"] = time.monotonic() - started
    return _CACHE["p"]


# --- criterion 1: matching oracle equivalence --------------------------------

def random_matching_case(rng, n_log, n_list, n_planted):
    pool = [rng.randbytes(16) for _ in range(max(n_log // 4, 16))]
    log = ContactLog()
    for _ in range(n_log):
        log.observe([(rng.choice(pool), 0)], rng.randrange(0, 40),
                    rng.randrange(0, 2880))
    entries = [(rng.randrange(0, 40), rng.choice(pool)) for _ in range(n_list)]
    log_keys = sorted(log.records)
    planted = [log_keys[rng.randrange(len(log_keys))]
               for _ in range(min(n_planted, len(log_keys)))]
    entries.extend(planted)
    from tracenet.authority import SignedCarrierList

    lst = SignedCarrierList(epoch_date=0, entries=tuple(entries), signature=b"")
    return log, lst, planted


def test_criterion_01_matching_oracle_equivalence():
    rng = random.Random(20260823)
    started = time.monotonic()
    trials = [(rng.randrange(0, 250), rng.randrange(0, 250), rng.randrange(0, 8))
              for _ in range(994)]
    # Size extremes: ten-thousand-record logs and ten-thousand-entry lists.
    trials += [(10_000, 120, 12), (10_000, 40, 5),
               (10_000, 10_000 // 50, 3),
               (120, 10_000, 12), (40, 10_000, 5), (200, 10_000, 20)]
    assert len(trials) == 1000
    checked = 0
    for n_log, n_list, n_planted in trials:
        log, lst, planted = random_matching_case(rng, n_log, n_list, n_planted)
        fast = match_contacts(log, build_index(lst, verified=True))
        slow = brute_force_match(log, lst)
        assert {(h.date, h.rdi) for h in fast} == {(h.date, h.rdi) for h in slow}
        assert set(planted) <= {(h.date, h.rdi) for h in fast}
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"matching oracle trials took {elapsed:.1f}s"
    ok(1, "matching oracle equivalence", f"{checked} trials in {elapsed:.1f}s")


def test_criterion_02_date_discipline():
    rdi = bytes(range(16))
    log = ContactLog()
    for date in range(0, 20):
        log.observe([(rdi, 0)], date, tick=100)
    from tracenet.authority import SignedCarrierList

    # Same identifier on every date the log does NOT contain it.
    lst = SignedCarrierList(
        epoch_date=0,
        entries=tuple((d, rdi) for d in range(20, 40)),
        signature=b"",
    )
    assert match_contacts(log, build_index(lst, verified=True)) == []
    assert brute_force_match(log, lst) == []
    # Shifting one entry into the logged range produces exactly one hit.
    shifted = SignedCarrierList(epoch_date=0, entries=((5, rdi),), signature=b"")
    assert len(match_contacts(log, build_index(shifted, verified=True))) == 1
    ok(2, "date discipline", "identifier-only collisions never match")


def test_criterion_03_rotation_and_unlinkability():
    devices, days = 1000, 30
    master = random.Random(77)
    all_ids = np.empty((devices, days, 16), dtype=np.uint8)
    for dev in range(devices):
        rng = random.Random(master.getrandbits(64))
        seen = set()
        for day in range(days):
            ident = generate_daily_identifier(rng, day)
            assert ident.rdi not in seen, "identifier reused across days"
            seen.add(ident.rdi)
            all_ids[dev, day] = np.frombuffer(ident.rdi, dtype=np.uint8)
    bits = np.unpackbits(all_ids, axis=2)
    agreement = float(np.mean(bits[:, 1:, :] == bits[:, :-1, :]))
    assert 0.45 <= agreement <= 0.55, f"cross-day bit agreement {agreement:.4f}"
    ok(3, "rotation and unlinkability",
       f"{devices}x{days} devices, bit agreement {agreement:.4f}")


def test_criterion_04_beacon_codec():
    rng = random.Random(4)
    for _ in range(100_000):
        rdi = rng.randbytes(16)
        assert decode_beacon(encode_beacon(DailyIdentifier(rdi, 0))) == rdi
    assert BEACON_MAGIC == bytes([0x43, 0x30, 0x46, 0x31, 0x44, 0x31, 0x39])
    good = encode_beacon(DailyIdentifier(bytes(16), 0))
    assert good[:7] == BEACON_MAGIC
    with pytest.raises(WrongLength):
        decode_beacon(good[:-1])
    with pytest.raises(BadMagic):
        decode_beacon(b"\x00" + good[1:])
    with pytest.raises(UnsupportedVersion):
        decode_beacon(good[:7] + b"\x02" + good[8:])
    ok(4, "beacon codec", "100000 round trips, all decode error classes")


def test_criterion_05_category_boundaries():
    def record(near=0, mid=0, far=0):
        # The record a device logs after seeing one rdi near, then mid,
        # then far, in one run of ticks from tick 0.
        log = ContactLog()
        start = 0
        for cls, n in zip(DistanceClass, (near, mid, far)):
            log.observe_span(bytes(16), cls, 0, start, n)
            start += n
        return log.record(0, bytes(16))

    assert classify(record(near=31)) == Category.CATEGORY1  # 15.5 min
    assert classify(record(near=29)) == Category.CATEGORY2  # 14.5 min
    assert classify(record(near=30)) == Category.CATEGORY2  # exactly 15.0 min
    for far in (1, 30, 2880):
        assert classify(record(far=far)) == Category.UNCRITICAL
    ok(5, "category boundaries", "15-minute rule is strictly greater-than")


def test_criterion_06_storage_bound():
    log = ContactLog()
    rdis = [bytes([i]) * 16 for i in range(6)]
    for tick in range(1440):  # 12 hours of 30-second ticks
        log.observe([(rdi, 0) for rdi in rdis], date=0, tick=tick)
    total = sum(log.record(*key).bucket_count for key in log.records)
    assert total == 2160
    ok(6, "storage bound", "6 neighbors for 12h is exactly 2160 bucket-entries")


def test_criterion_07_signed_list_integrity():
    rng = random.Random(7)
    key, pub = generate_keypair(rng)
    state = AuthorityState(signing_key=key)
    for epoch in (5, 6, 7):
        ids = [(epoch, rng.randbytes(16)) for _ in range(4)]
        state.register_carrier([], epoch, own_identifiers=ids, today=epoch)
    lst = state.publish(7)
    assert {date for date, _ in lst.entries} == {6, 7}
    data = serialize_list(lst)
    assert verify_list(deserialize_list(data), pub)

    rejected = 0
    for _ in range(10_000):
        corrupted = bytearray(data)
        position = rng.randrange(len(data))
        corrupted[position] ^= 1 << rng.randrange(8)
        try:
            parsed = deserialize_list(bytes(corrupted))
        except Malformed:
            rejected += 1
            continue
        assert not verify_list(parsed, pub), \
            f"bit flip at byte {position} survived verification"
        rejected += 1
    assert rejected == 10_000
    ok(7, "signed list integrity",
       "10000 single-bit corruptions rejected, window is {epoch, epoch-1}")


# --- criterion 8: exhaustive casework safety ---------------------------------

SUMMARY_BODY = {"date": 3, "near_ticks": 40, "mid_ticks": 0, "far_ticks": 0}
TEST_DATES = (0, 4, 5, 9, 10)


def message_alphabet(token):
    messages = [
        MailboxMessage(token, MessageKind.OPEN_INQUIRY, SUMMARY_BODY),
        MailboxMessage(token, MessageKind.CATEGORIZATION_EVIDENCE,
                       {"reassess": "near"}),
        MailboxMessage(token, MessageKind.CATEGORIZATION_EVIDENCE,
                       {"reassess": "far"}),
        MailboxMessage(token, MessageKind.TEST_ORDER, {}),
        MailboxMessage(token, MessageKind.HISTORY_REQUEST, {}),
        MailboxMessage(token, MessageKind.HISTORY_UPLOAD, {}),
        MailboxMessage(token, MessageKind.RELEASE, {}),
        MailboxMessage(token, MessageKind.DROP, {}),
    ]
    for category in Category:
        messages.append(MailboxMessage(token, MessageKind.CATEGORY_DECISION,
                                       {"category": category.value}))
    for result in ("positive", "negative"):
        for date in TEST_DATES:
            messages.append(MailboxMessage(token, MessageKind.TEST_RESULT,
                                           {"result": result, "date": date}))
    return messages


def case_key(case):
    # Everything a future step() transition can depend on.
    return (
        case.state,
        case.category,
        tuple(case.test_results),
        case.summary is not None,
        frozenset(e.get("reassess") for e in case.evidence),
    )


def assert_case_safe(case):
    if case.state == CaseState.RELEASED:
        negatives = sorted(d for r, d in case.test_results if r == "negative")
        assert len(negatives) >= 2, "released with fewer than two negatives"
        spacing = negatives[-1] - negatives[0]
        assert spacing >= case.incubation_days, \
            f"released with negatives only {spacing} days apart"
    if case.state != CaseState.INQUIRY_OPEN:
        # The category decision closes the inquiry and erases its payload.
        assert case.summary is None, \
            f"{case.state.value} case kept its contact summary"
        assert case.evidence == (), \
            f"{case.state.value} case kept evidence payloads"


def test_criterion_08_casework_safety_exhaustive():
    token = bytes(16)
    alphabet = message_alphabet(token)
    started = time.monotonic()
    root = CaseRecord(token=token)
    frontier = {case_key(root): root}
    visited = set(frontier)
    explored = 0
    for _depth in range(8):
        next_frontier = {}
        for case in frontier.values():
            for message in alphabet:
                successor = copy.deepcopy(case)
                successor, _ = casework.step(successor, message, today=0)
                explored += 1
                key = case_key(successor)
                if key in visited:
                    continue
                visited.add(key)
                assert_case_safe(successor)
                next_frontier[key] = successor
        frontier = next_frontier
        if not frontier:
            break
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"exhaustive enumeration took {elapsed:.1f}s"
    # What the authority stores of a test-ordered case carries no summary.
    state = AuthorityState(signing_key=generate_keypair(random.Random(8))[0])
    case = CaseRecord(token=token)
    casework.step(case, alphabet[0], today=0)
    state.cases[token] = case
    _, out = casework.categorize(case, case.summary, today=0)
    assert [m.kind for m in out] == [MessageKind.TEST_ORDER]
    text = state.serialize_state()
    assert '"summary": null' in text and '"evidence": []' in text
    ok(8, "casework safety",
       f"{explored} transitions, {len(visited)} states, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_09_epidemic_calibration():
    started = time.monotonic()
    p = calibrated_p()
    reports = [
        run(replace(CALIBRATION_CONFIG, p_transmit=p, seed=50_000 + k))
        for k in range(20)
    ]
    elapsed = time.monotonic() - started
    mean_r0 = sum(r.empirical_r0 for r in reports) / len(reports)
    mean_attack = sum(r.attack_rate for r in reports) / len(reports)
    assert 1.8 <= mean_r0 <= 2.6, f"calibrated R0 estimate {mean_r0:.3f}"
    assert mean_attack > 0.5, f"uncontained attack rate {mean_attack:.3f}"
    assert elapsed < 120.0, f"calibration criterion took {elapsed:.1f}s"
    ok(9, "epidemic calibration",
       f"p={p:.6g}, R0 {mean_r0:.2f}, attack {mean_attack:.2f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_containment_property():
    p = calibrated_p()
    base = ScenarioConfig(population=1000, days=90, index_cases=3,
                          p_transmit=p, test_delay_days=0,
                          categories_traced="cat1+cat2")
    traced_extinct = 0
    untraced_extinct = 0
    post_intervention_r = []
    for k in range(20):
        seed = 90_000 + k
        traced = run(replace(base, adoption_fraction=1.0), seed=seed)
        untraced = run(replace(base, adoption_fraction=0.0), seed=seed)
        traced_extinct += traced.extinction
        untraced_extinct += untraced.extinction
        post_intervention_r += [
            value for day, value in estimate_R_effective(traced) if day >= 10
        ]
    assert traced_extinct >= 18, f"only {traced_extinct}/20 traced runs died out"
    assert untraced_extinct <= 2, \
        f"{untraced_extinct}/20 untraced runs died out anyway"
    mean_r = sum(post_intervention_r) / len(post_intervention_r)
    assert mean_r < 1.0, f"post-intervention effective R {mean_r:.3f}"
    ok(10, "containment property",
       f"traced {traced_extinct}/20 extinct, untraced {untraced_extinct}/20, "
       f"post-intervention R {mean_r:.2f}")


def test_criterion_11_erasure_margin():
    rng = random.Random(11)
    key, _ = generate_keypair(rng)
    state = AuthorityState(signing_key=key)
    for epoch in range(3, 8):
        rdi = rng.randbytes(16)
        history = [ContactLog().observe_span(rdi, DistanceClass.NEAR, epoch, 0, 10)
                   .record(epoch, rdi)]
        ids = [(epoch, rng.randbytes(16))]
        state.register_carrier(history, 0, own_identifiers=ids, today=epoch)
        case = CaseRecord(token=rng.randbytes(16), state=CaseState.DROPPED,
                          resolution_epoch=epoch)
        state.cases[case.token] = case
    open_case = CaseRecord(token=rng.randbytes(16),
                           state=CaseState.AWAITING_TEST1)
    state.cases[open_case.token] = open_case

    epoch = 7
    state.erase_expired(epoch)

    import json

    dump = json.loads(state.serialize_state())
    for case in dump["cases"]:
        if case["resolution_epoch"] is not None:
            assert case["resolution_epoch"] > epoch - 1
    for entry in dump["entries"]:
        assert entry["added_epoch"] > epoch - 2  # still publishable
    assert any(c["resolution_epoch"] is None for c in dump["cases"])
    ok(11, "erasure margin",
       "no payload at epoch <= E-1 survives erase_expired(E, margin 1)")


def test_criterion_12_determinism():
    config = ScenarioConfig(population=150, days=25, seed=12, index_cases=2,
                            p_transmit=0.01)
    a = run(config, record_events=True)
    b = run(config, record_events=True)
    assert a.to_csv().encode() == b.to_csv().encode()
    assert "\n".join(a.events).encode() == "\n".join(b.events).encode()
    ok(12, "determinism", "identical seed gives byte-identical outputs")
