import copy
import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relqprot.parity import _optimal_guesses, exact_parity_guesser
from relqprot.protocol import (
    HONEST,
    PERP,
    AbortReason,
    AuditError,
    DelayBlocks,
    EarlyGuess,
    Event,
    ProtocolConfig,
    SendBack,
    Transcript,
    _delay_pass_probability,
    _mirror_plan,
    _verify_announcement,
    audit_transcript,
    mirror_guess_acceptance,
    run_bit_commitment,
    run_coin_toss,
    sample_secret,
    simulate,
    transcript_to_jsonl,
)
from relqprot.wavepacket import SILENT, StretchedState, delayed_overlap


def config(n=2, k=2, **kwargs):
    return ProtocolConfig(n, k, **kwargs)


def hump_windows(cfg):
    """The nominal (lo, hi) interval of each hump of ``cfg``'s state."""
    state = cfg.make_state()
    return state.front.nominal_interval, state.rear.nominal_interval


def inside(window, taus):
    """Open-interval membership, the test the class rule applies to a hump window."""
    lo, hi = window
    return (lo < taus) & (taus < hi)


def aborts(batch):
    """The abort reasons that occur among a batch's trials."""
    return {list(AbortReason)[c - 1] for c in set(batch.code[~batch.accepted].tolist())}


def within_3_sigma(hits, ref):
    sigma = math.sqrt(ref * (1 - ref) / hits.size)
    return abs(np.mean(hits) - ref) <= 3 * sigma


def secret_parity(cfg, trials, seed):
    """A's secret parity per trial, drawn by ``sample_secret`` from a fresh
    generator on ``seed``: ``simulate`` draws A's secret first."""
    return sample_secret(cfg, trials, np.random.default_rng(seed))[0]


def early_guesses(cfg, batch):
    """B's optimal parity guess per trial from the A->B outcomes that fired
    by tau_d and are not PERP."""
    taus, outcomes = batch.ab[:2]
    visible = (taus <= cfg.tau_d) & (outcomes != PERP)
    ones = np.count_nonzero(visible & (outcomes == 1), axis=1)
    zeros = np.count_nonzero(visible & (outcomes == 0), axis=1)
    return _optimal_guesses(cfg.n_blocks, cfg.block_len, ones, zeros)


# -------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(0, 1)
    with pytest.raises(ValueError):
        ProtocolConfig(2, 2, separation=1.5)  # compact humps would overlap
    with pytest.raises(ValueError):
        ProtocolConfig(2, 2, channel_delay=10.5)  # beyond the state extent
    with pytest.raises(ValueError):
        ProtocolConfig(2, 2, disclosure_time=0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(2, 2, disclosure_time=9.5)
    with pytest.raises(ValueError):
        ProtocolConfig(2, 2, tail_exponent=1e-300)  # exp(-xi) rounds to 1
    for xi in (744.5, 800.0):  # the Gaussian scale underflows to 0
        with pytest.raises(ValueError):
            ProtocolConfig(2, 2, tail_exponent=xi)
    cfg = ProtocolConfig(2, 2, channel_delay=3.0, disclosure_time=4.0)
    assert cfg.tau_d == 4.0
    assert config().tau_d == pytest.approx(5.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"n_blocks": 2.5},
        {"n_blocks": 2.0},
        {"block_len": True},
        {"separation": "8"},
        {"width": "1"},
        {"tail_exponent": math.nan},
        {"channel_delay": None},
        {"disclosure_time": math.inf},
    ],
)
def test_config_rejects_mistyped_fields(fields):
    with pytest.raises(ValueError):
        ProtocolConfig(**{"n_blocks": 2, "block_len": 2, **fields})


@pytest.mark.parametrize("channel_delay", [0.0, 2.0])
def test_detections_trail_the_wall_clock_by_the_channel_delay(channel_delay):
    cfg = config(3, 2, channel_delay=channel_delay)
    results = [
        run_bit_commitment(cfg, seed=4),
        run_coin_toss(cfg, seed=4),
        run_coin_toss(cfg, strategy_b=SendBack(), seed=4),
    ]
    for result in results:
        detects = [e for e in result.transcript.events if e.kind == "detect"]
        assert detects
        for event in detects:
            assert event.t - event.payload["tau"] == pytest.approx(channel_delay, abs=1e-12)
    # at wall time delay + separation - width the receiver sees exactly the front hump
    t = channel_delay + cfg.separation - cfg.width
    mass = cfg.make_state().window_mass(-math.inf, t - channel_delay)
    assert mass == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------- bit commitment


def test_honest_commitment_always_accepted():
    batch = simulate(config(3, 2), 300, np.random.default_rng(0))
    assert batch.accepted.all()
    assert np.array_equal(batch.parity_a, secret_parity(config(3, 2), 300, 0))


def test_transcript_shape_and_determinism():
    cfg = config(2, 2)
    first = run_bit_commitment(cfg, seed=77)
    second = run_bit_commitment(cfg, seed=77)
    assert transcript_to_jsonl(first.transcript) == transcript_to_jsonl(second.transcript)
    other = run_bit_commitment(cfg, seed=78)
    assert transcript_to_jsonl(first.transcript) != transcript_to_jsonl(other.transcript)

    events = first.transcript.events
    times = [e.t for e in events]
    assert times == sorted(times)
    kinds = [e.kind for e in events]
    assert kinds.count("emit") == 4
    assert kinds.count("detect") == 4
    assert kinds[-1] == "verdict"
    for line in transcript_to_jsonl(first.transcript).strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"t", "actor", "kind", "payload"}


def test_delayed_block_detection_rate():
    batch = simulate(config(2, 2), 3000, np.random.default_rng(0), delayed_blocks={1})
    assert within_3_sigma(batch.accepted, 0.25)
    assert aborts(batch) == {AbortReason.PERP_OUTCOME}


def test_two_delayed_blocks_compound():
    batch = simulate(config(3, 1), 4000, np.random.default_rng(0), delayed_blocks={0, 2})
    assert within_3_sigma(batch.accepted, 0.25)


@pytest.mark.parametrize("n, k, delayed, xi", [
    (2, 1, {0}, 1.0), (2, 1, {0}, 2.0), (2, 1, {0}, 4.0), (3, 2, {0, 2}, 2.0),
])
def test_gaussian_delayed_state_passes_with_the_overlap_only(n, k, delayed, xi):
    # A delayed state that passes the projector fired inside the rear window,
    # so each delayed channel is charged p_pass once and each honest one
    # completes w.p. 1 - e^-xi.  Drawing its coordinate from the whole rear
    # profile charged the tail again (z = -30.6, -20.3 and -3.3 at (2, 1)).
    cfg = config(n, k, tail_exponent=xi)
    honest = StretchedState.create(cfg.width, cfg.separation, 0, xi)
    p_pass = delayed_overlap(honest.rear, honest)
    m = len(delayed)
    batch = simulate(cfg, 200_000, 7, delayed_blocks=delayed)
    assert within_3_sigma(batch.accepted, p_pass ** (m * k) * (1.0 - math.exp(-xi)) ** ((n - m) * k))


def test_early_guess_single_state_identification():
    cfg = ProtocolConfig(1, 1)
    batch = simulate(cfg, 6000, np.random.default_rng(0))
    assert within_3_sigma(early_guesses(cfg, batch) == secret_parity(cfg, 6000, 0), 0.75)


@pytest.mark.parametrize("run, coin_toss", [(run_bit_commitment, False), (run_coin_toss, True)])
@pytest.mark.parametrize("n, k, tau_d", [(1, 1, None), (4, 1, None), (2, 3, 5.0)])
def test_reported_early_guess_is_the_guess_on_the_engine_outcomes(run, coin_toss, n, k, tau_d):
    # the rate tests grade early_guesses(); a run must report the same guess
    cfg = config(n, k, disclosure_time=tau_d)
    for seed in range(30):
        report = run(cfg, strategy_b=EarlyGuess(), seed=seed).early_guess
        batch = simulate(cfg, 1, seed, coin_toss=coin_toss)
        assert report.guess == early_guesses(cfg, batch)[0]
        assert report.correct == (report.guess == secret_parity(cfg, 1, seed)[0])


@pytest.mark.parametrize("cfg, strategy_a", [
    (config(4, 1), HONEST),
    (config(2, 3, disclosure_time=8.5), DelayBlocks([1])),
    (config(8, 8, tail_exponent=1.0), DelayBlocks([0])),
    (config(64, 8, channel_delay=0.7), DelayBlocks([0])),
])
def test_reported_early_guess_is_the_exact_guesser_s(cfg, strategy_a):
    # the run reads the guess off the counts; the checked public guesser on
    # the channels the event cites must agree, confidence bytes included
    for seed in range(8):
        result = run_bit_commitment(cfg, strategy_a, EarlyGuess(), seed=seed)
        (event,) = [e for e in result.transcript.events if e.kind == "early_guess"]
        expected = exact_parity_guesser({int(c): b for c, b in event.payload["fired"].items()},
                                        cfg.n_blocks, cfg.block_len)
        report = result.early_guess
        assert (report.guess, report.confidence) == tuple(expected)
        assert (event.payload["guess"], event.payload["confidence"]) == tuple(expected)


def test_early_guess_visible_channels_only():
    cfg = config(2, 3, disclosure_time=5.0)
    res = run_bit_commitment(cfg, strategy_b=EarlyGuess(), seed=11)
    guess_events = [e for e in res.transcript.events if e.kind == "early_guess"]
    assert len(guess_events) == 1
    fired = guess_events[0].payload["fired"]
    detect_times = {
        e.payload["channel"]: e.payload["tau"]
        for e in res.transcript.events
        if e.kind == "detect"
    }
    for channel in fired:
        assert detect_times[int(channel)] <= cfg.tau_d


def test_strategy_validation():
    cfg = config()
    with pytest.raises(ValueError):
        run_bit_commitment(cfg, strategy_b=SendBack())
    with pytest.raises(ValueError):
        run_bit_commitment(cfg, strategy_a=EarlyGuess())
    with pytest.raises(ValueError):
        run_bit_commitment(cfg, strategy_a=DelayBlocks([5]))
    with pytest.raises(ValueError):
        run_coin_toss(cfg, strategy_b=DelayBlocks([0]))


@pytest.mark.parametrize("blocks", [{5}, {-1}])
def test_simulate_rejects_delayed_blocks_out_of_range(blocks):
    with pytest.raises(ValueError, match="delayed block index out of range"):
        simulate(ProtocolConfig(2, 2), 1000, 0, delayed_blocks=blocks)


@pytest.mark.parametrize("trials", [True, 2.0, "2", -1, np.int64(-1)],
                         ids=["bool", "float", "str", "negative", "negative-int64"])
def test_simulate_rejects_a_trial_count_that_is_not_a_count(trials):
    # was a TypeError, numpy's UFuncTypeError or its "negative dimensions"
    with pytest.raises(ValueError, match="^trials must be"):
        simulate(ProtocolConfig(2, 2), trials, 0)
    assert simulate(ProtocolConfig(2, 2), np.int64(0), 0).code.shape == (0,)


@pytest.mark.parametrize("call, name", [
    (lambda: simulate(ProtocolConfig(2, 2), 5, -1), "rng"),
    (lambda: run_bit_commitment(ProtocolConfig(2, 2), seed=-1), "seed"),
    (lambda: run_coin_toss(ProtocolConfig(2, 2), seed=-3), "seed"),
], ids=["simulate", "bit-commitment", "coin-toss"])
def test_a_negative_seed_is_rejected_by_its_name(call, name):
    # was numpy's "expected non-negative integer", which names no argument
    with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
        call()


def test_a_run_seed_is_its_argument_only():
    # the config holds only what both users agree on; the seed is checked where it is read
    with pytest.raises(TypeError, match="master_seed"):
        ProtocolConfig(2, 2, master_seed=1)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        run_bit_commitment(ProtocolConfig(2, 2), seed="3")
    cfg = ProtocolConfig(2, 2)
    default, zero = run_bit_commitment(cfg), run_bit_commitment(cfg, seed=0)
    assert transcript_to_jsonl(default.transcript) == transcript_to_jsonl(zero.transcript)


# ------------------------------------------------- block reassignment immunity


def partitions_into_blocks(channels, k):
    """All ways to split ``channels`` into unordered blocks of size k."""
    channels = sorted(channels)
    if not channels:
        yield []
        return
    head = channels[0]
    for rest in combinations(channels[1:], k - 1):
        block = (head, *rest)
        remaining = [c for c in channels[1:] if c not in rest]
        for tail in partitions_into_blocks(remaining, k):
            yield [block, *tail]


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 4)])
def test_reassignment_cannot_change_parity(n, k):
    cfg = ProtocolConfig(n, k)
    res = run_bit_commitment(cfg, seed=5)
    disclose = next(e for e in res.transcript.events if e.kind == "disclose")
    bits = {item["channel"]: item["bit"] for item in disclose.payload["channels"]}
    ones = [c for c, b in bits.items() if b == 1]
    zeros = [c for c, b in bits.items() if b == 0]
    count = 0
    for one_part in partitions_into_blocks(ones, k):
        for zero_part in partitions_into_blocks(zeros, k):
            count += 1
            parity = len(one_part) % 2
            assert parity == res.committed_bit
    assert count >= 1


# ----------------------------------------------------------------- coin toss


def test_honest_coin_toss_accepts_and_is_fair():
    cfg = config(2, 2)
    batch = simulate(cfg, 3000, np.random.default_rng(0), coin_toss=True)
    assert batch.accepted.all()
    assert np.array_equal(batch.parity_a, secret_parity(cfg, 3000, 0))
    assert within_3_sigma(batch.lot, 0.5)
    winners = set()
    for seed in range(10):  # a run names the winner of its lot
        res = run_coin_toss(cfg, seed=seed)
        assert res.lot == res.parity_a ^ res.parity_b
        assert res.winner == ("A" if res.lot == 0 else "B")
        winners.add(res.winner)
    assert winners == {"A", "B"}


def test_ct_half_disclosure_phases_are_ordered():
    cfg = config(3, 2)
    res = run_coin_toss(cfg, seed=3)
    phases = [(e.payload["phase"], e.actor) for e in res.transcript.events if e.kind == "disclose"]
    assert phases == [(1, "A"), (2, "B"), (3, "A"), (4, "B")]
    # responder's first batch covers exactly the initiator's undisclosed indices
    ph1 = next(e for e in res.transcript.events if e.kind == "disclose" and e.payload["phase"] == 1)
    ph2 = next(e for e in res.transcript.events if e.kind == "disclose" and e.payload["phase"] == 2)
    idx1 = {item["channel"] for item in ph1.payload["channels"]}
    idx2 = {item["channel"] for item in ph2.payload["channels"]}
    assert idx1 & idx2 == set()
    assert idx1 | idx2 == set(range(cfg.n_channels))


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_staged_mirror_copies_exactly_phase_one(n, k):
    # the mirror guesses blind only the channels phase 1 leaves undisclosed,
    # so what B discloses on phase 1's channels is A's phase-1 disclosure
    for seed in range(50):
        res = run_coin_toss(ProtocolConfig(n, k), strategy_b=SendBack(), seed=seed)
        disclosed = {e.payload["phase"]: e.payload["channels"]
                     for e in res.transcript.events if e.kind == "disclose"}
        bits_a = [(i["channel"], i["bit"]) for i in disclosed[1]]
        bits_b = [(i["channel"], i["bit"]) for i in disclosed[4]]
        assert bits_b == bits_a, seed


def test_send_back_full_disclosure_forces_zero_lot():
    batch = simulate(
        config(2, 2), 500, np.random.default_rng(0), coin_toss=True, mirror=True, staged=False
    )
    assert batch.accepted.all()
    assert not batch.lot.any()
    assert np.array_equal(batch.parity_b, batch.parity_a)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 1)])
def test_send_back_half_disclosure_acceptance_rate(n, k):
    batch = simulate(ProtocolConfig(n, k), 4000, np.random.default_rng(0), coin_toss=True, mirror=True)
    assert not batch.lot[batch.accepted].any()  # a passing mirror still forces the zero lot
    assert within_3_sigma(batch.accepted, float(mirror_guess_acceptance(n, k)))


def test_mirror_guess_oracle_values():
    assert mirror_guess_acceptance(2, 1) == Fraction(1, 2)
    assert mirror_guess_acceptance(4, 1) == Fraction(1, 4)
    assert mirror_guess_acceptance(2, 2) == Fraction(1, 4)
    assert mirror_guess_acceptance(6, 2) == Fraction(1, 64)
    assert mirror_guess_acceptance(1, 3) == Fraction(1)  # nothing left to guess
    for n, k in [(2, 1), (3, 1), (4, 2), (5, 2)]:
        hidden = (n - (n + 1) // 2) * k
        assert mirror_guess_acceptance(n, k) == Fraction(1, 2**hidden)


def mirror_survival(n, k, one_coin):
    """A staged mirror's exact acceptance over every block assignment with k
    channels per block, every block value and every guess of the hidden
    channels, run through ``_mirror_plan`` and ``_verify_announcement``.
    Every reflected fire lies inside its window (compact humps, no channel
    delay), so its outcome is A's bit.  The blind mirror guesses each hidden
    channel; the one-coin mirror puts one guessed value on all of them."""
    cfg, nk, hidden_count = config(n, k), n * k, (n // 2) * k
    assignments = np.indices((n,) * nk).reshape(nk, -1).T
    assignments = assignments[(np.sort(assignments, axis=1) == np.arange(nk) // k).all(axis=1)]
    values = np.indices((2,) * n).reshape(n, -1).T
    if one_coin:
        guesses = np.array([[0] * hidden_count, [1] * hidden_count])
    else:
        guesses = np.indices((2,) * hidden_count).reshape(hidden_count, -1).T
    ia, iv, ig = np.indices((len(assignments), len(values), len(guesses))).reshape(3, -1)
    blocks_a = assignments[ia]
    bits_a = values[iv[:, None], blocks_a]
    bits_b = bits_a.copy()
    bits_b[blocks_a >= (n + 1) // 2] = guesses[ig].ravel()
    code, _ = _verify_announcement(cfg, bits_a, bits_b, _mirror_plan(cfg, bits_b))
    return Fraction(int(np.count_nonzero(code == 0)), len(code))


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_blind_mirror_survival_is_the_oracle_exactly(n, k):
    assert mirror_survival(n, k, one_coin=False) == mirror_guess_acceptance(n, k)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (4, 1), (2, 3)])
def test_one_coin_mirror_survives_with_one_block_guess_per_hidden_block(n, k):
    # the hidden blocks are all 0 or all 1 with chance 2^-floor(N/2) each, and
    # one coin names either, so block length buys nothing against send-back
    assert mirror_survival(n, k, one_coin=True) == Fraction(1, 2 ** (n // 2))


def test_mirror_guess_oracle_beyond_sixteen_guessed_channels():
    # floor(N/2) * k fair guesses, independent of the truth: 2^-m at any m
    assert mirror_guess_acceptance(34, 1) == Fraction(1, 2**17)
    assert mirror_guess_acceptance(35, 1) == Fraction(1, 2**17)
    assert mirror_guess_acceptance(12, 3) == Fraction(1, 2**18)
    assert mirror_guess_acceptance(200, 8) == Fraction(1, 2**800)


def test_ct_early_guess_reported():
    cfg = ProtocolConfig(4, 1)
    batch = simulate(cfg, 4000, np.random.default_rng(0), coin_toss=True)
    assert batch.accepted.all()
    assert within_3_sigma(early_guesses(cfg, batch) == secret_parity(cfg, 4000, 0), 0.5 + 2.0**-5)


# -------------------------------------------------------------------- tailed


def test_tailed_honest_completion_rate():
    xi = 3.0
    cfg = config(2, 2, tail_exponent=xi)
    batch = simulate(cfg, 4000, np.random.default_rng(0))
    accepted = batch.accepted
    assert np.array_equal(batch.parity_a[accepted], secret_parity(cfg, 4000, 0)[accepted])
    assert within_3_sigma(accepted, (1.0 - math.exp(-xi)) ** 4)
    # both tail failure modes occur at this rate
    assert aborts(batch) == {AbortReason.PERP_OUTCOME, AbortReason.SILENT_AT_FULL_ACCESS}


@pytest.mark.parametrize("n, k, geometry", [
    (1, 1, {"tail_exponent": 0.1}),  # a wide tail reaches the other window
    (2, 2, {"width": 1.0, "separation": 1.5, "tail_exponent": 0.5}),  # the windows overlap
])
def test_tailed_honest_completion_counts_either_window(n, k, geometry):
    cfg = config(n, k, **geometry)
    batch = simulate(cfg, 4000, np.random.default_rng(0))
    assert within_3_sigma(batch.accepted, cfg.honest_completion)


# --------------------------------------------------------------------- audit


def test_audit_rejects_acausal_guess():
    cfg = config(2, 1)
    res = run_bit_commitment(cfg, strategy_b=EarlyGuess(), seed=1)
    events = list(res.transcript.events)
    guess = next(e for e in events if e.kind == "early_guess")
    detect = {e.payload["channel"]: e for e in events if e.kind == "detect"}
    late = [c for c, e in detect.items() if e.t > guess.t]
    assert late, "need a rear-hump detection after the guess for this check"
    tampered_fired = dict(guess.payload["fired"])
    channel = late[0]
    tampered_fired[str(channel)] = int(detect[channel].payload["outcome"][2])
    tampered = Event(guess.t, guess.actor, guess.kind, {**guess.payload, "fired": tampered_fired})
    transcript = Transcript([tampered if e is guess else e for e in events])
    with pytest.raises(AuditError):
        audit_transcript(transcript, cfg)


def test_audit_rejects_a_guess_that_misquotes_the_log():
    cfg = config(2, 1)
    res = run_bit_commitment(cfg, strategy_b=EarlyGuess(), seed=1)
    events = list(res.transcript.events)
    guess = next(e for e in events if e.kind == "early_guess")
    assert guess.payload["fired"], "need a cited detection for this check"
    channel, bit = next(iter(guess.payload["fired"].items()))
    fired = {**guess.payload["fired"], channel: 1 - bit}  # fired before the guess
    tampered = Event(guess.t, guess.actor, guess.kind, {**guess.payload, "fired": fired})
    transcript = Transcript([tampered if e is guess else e for e in events])
    with pytest.raises(AuditError, match="inconsistent with the log"):
        audit_transcript(transcript, cfg)


def test_audit_rejects_disclosure_phases_out_of_order():
    cfg = config(3, 2)
    res = run_coin_toss(cfg, seed=3)
    swap = {1: 2, 2: 1}

    def renumbered(e):
        if e.kind != "disclose" or e.payload["phase"] not in swap:
            return e
        return Event(e.t, e.actor, e.kind, {**e.payload, "phase": swap[e.payload["phase"]]})

    audit_transcript(res.transcript, cfg)
    with pytest.raises(AuditError, match="phases out of order"):
        audit_transcript(Transcript([renumbered(e) for e in res.transcript.events]), cfg)


def cite(events, edit):
    """``events`` with the early guess's ``fired`` map replaced by ``edit(fired)``."""
    return [Event(e.t, e.actor, e.kind, {**e.payload, "fired": edit(e.payload["fired"])})
            if e.kind == "early_guess" else e for e in events]


@pytest.mark.parametrize("edit", [
    lambda fired: {**fired, "0": 1.0},  # was a TypeError from indexing by a float
    lambda fired: {**fired, "0": True},  # was accepted as the bit 1
    lambda fired: {"x": 1},  # was a ValueError from int()
    lambda fired: {"00": 1},  # was read as channel 0
    lambda fired: list(fired),  # was an AttributeError from .items()
    lambda fired: "0",  # likewise
], ids=["float-bit", "bool-bit", "non-decimal-key", "padded-key", "list", "string"])
def test_audit_rejects_a_malformed_citation(edit):
    cfg = config(2, 1)
    res = run_bit_commitment(cfg, strategy_b=EarlyGuess(), seed=1)
    events = res.transcript.events
    assert next(e for e in events if e.kind == "early_guess").payload["fired"] == {"0": 1}
    audit_transcript(Transcript(cite(events, dict)), cfg)
    with pytest.raises(AuditError):
        audit_transcript(Transcript(cite(events, edit)), cfg)


def test_audit_rejects_a_disclosure_before_the_horizon():
    cfg = config(3, 2, channel_delay=0.7)
    res = run_coin_toss(cfg, seed=3)

    def early(e):  # phase 1 one unit before tau_d + channel_delay, in time order
        if e.kind != "disclose" or e.payload["phase"] != 1:
            return e
        return Event(e.t - 1.0, e.actor, e.kind, e.payload)

    with pytest.raises(AuditError, match="before the disclosure horizon"):
        audit_transcript(Transcript(sorted(map(early, res.transcript.events), key=lambda e: e.t)), cfg)


def test_audit_rejects_a_detection_after_the_verdict():
    cfg = config(2, 2)
    res = run_bit_commitment(cfg, seed=2)
    events = list(res.transcript.events)
    last = max(i for i, e in enumerate(events) if e.kind == "detect")
    moved = events.pop(last)
    events.append(Event(events[-1].t, moved.actor, moved.kind, moved.payload))  # at the verdict's time
    with pytest.raises(AuditError, match="verdict is not the last event"):
        audit_transcript(Transcript(events), cfg)


@pytest.mark.parametrize("kind, field, payload", [
    ("early_guess", "direction", None),  # was read as A->B and passed
    ("disclose", "phase", None),  # was a KeyError
    ("detect", "direction", None),  # was a KeyError
    ("disclose", "phase", ["phase"]),  # was a TypeError from list indices
    ("disclose", "phase", "phase"),  # was a TypeError from string indices
    ("detect", "direction", ["direction"]),  # was a TypeError from list indices
], ids=["early_guess-direction", "disclose-phase", "detect-direction",
        "disclose-list", "disclose-string", "detect-list"])
def test_audit_rejects_an_event_without_a_field_it_reads(kind, field, payload):
    # a payload that is not a dict carries no field
    cfg = config(2, 1)
    events = run_bit_commitment(cfg, strategy_b=EarlyGuess(), seed=1).transcript.events
    i, target = next((i, e) for i, e in enumerate(events) if e.kind == kind)
    if payload is None:
        del target.payload[field]
    else:
        events[i] = Event(target.t, target.actor, kind, payload)
    with pytest.raises(AuditError, match=f"^{kind} event without {field}$"):
        audit_transcript(Transcript(events), cfg)


@pytest.mark.parametrize("phase, field, value", [
    (2, "phase", "2"),  # was a TypeError from sorting "2" with 1
    (2, "phase", True),  # was accepted as phase 1
    (1, "t", "5"),  # tau_d as text: np.asarray took it, the horizon check raised a TypeError
    (1, "t", None),  # likewise, as NaN
    (1, "t", False),
    (None, "channel", True),  # a detection cited as "True" was accepted
    (None, "channel", 1.5),  # likewise as "1.5"
    (None, "channel", "x"),  # likewise as "x"
], ids=["2-phase-2", "2-phase-True", "1-t-5", "1-t-None", "1-t-False",
        "channel-True", "channel-1.5", "channel-x"])
def test_audit_rejects_a_field_of_another_type(phase, field, value):
    cfg = config(3, 2)
    events = run_coin_toss(cfg, strategy_b=EarlyGuess(), seed=3).transcript.events
    audit_transcript(Transcript(events), cfg)
    if field == "channel":  # the early guess cites the detection by the str of its channel
        fired = next(e for e in events if e.kind == "early_guess").payload["fired"]
        key = next(iter(fired))
        target = next(e for e in events if e.kind == "detect" and e.payload["direction"] == "A->B"
                      and str(e.payload["channel"]) == key)
        fired[str(value)] = fired.pop(key)
    else:
        target = next(e for e in events if e.kind == "disclose" and e.payload["phase"] == phase)
    if field == "t":
        events[events.index(target)] = Event(value, target.actor, target.kind, target.payload)
    else:
        target.payload[field] = value
    with pytest.raises(AuditError, match=f"^{target.kind} event with a {type(value).__name__} {field}$"):
        audit_transcript(Transcript(events), cfg)


@pytest.mark.parametrize("at, value", [
    ("disclose", math.nan), ("first", math.nan), ("first", -math.inf), ("verdict", math.inf),
])
def test_audit_rejects_a_time_that_is_not_finite(at, value):
    # json.loads reads NaN and Infinity from a file, and no comparison they
    # take part in fails the time order or the disclosure horizon
    cfg = config(3, 2)
    events = run_coin_toss(cfg, seed=3).transcript.events
    i = {"first": 0, "disclose": [e.kind for e in events].index("disclose"), "verdict": len(events) - 1}[at]
    target = events[i]
    events[i] = Event(value, target.actor, target.kind, target.payload)
    with pytest.raises(AuditError, match=f"^{target.kind} event with a non-finite t$"):
        audit_transcript(Transcript(events), cfg)


def test_audit_rejects_disordered_events():
    cfg = config(2, 1)
    res = run_bit_commitment(cfg, seed=2)
    events = list(reversed(res.transcript.events))
    with pytest.raises(AuditError):
        audit_transcript(Transcript(events), cfg)


def test_channel_delay_shifts_wall_times_only():
    fast = config(2, 2)
    slow = config(2, 2, channel_delay=3.0)
    res_fast = run_bit_commitment(fast, seed=4)
    res_slow = run_bit_commitment(slow, seed=4)
    assert res_fast.verdict.code() == res_slow.verdict.code()
    taus_fast = [e.payload["tau"] for e in res_fast.transcript.events if e.kind == "detect"]
    taus_slow = [e.payload["tau"] for e in res_slow.transcript.events if e.kind == "detect"]
    assert taus_fast == taus_slow
    t_fast = [e.t for e in res_fast.transcript.events if e.kind == "detect"]
    t_slow = [e.t for e in res_slow.transcript.events if e.kind == "detect"]
    assert all(abs((b - a) - 3.0) < 1e-12 for a, b in zip(t_fast, t_slow))


# -------------------------------------------------------------------- engine


def _verdict_code(batch):
    code = int(batch.code[0])
    if code == 0:
        return None
    return f"ABORTED:{int(batch.channel[0])}:{list(AbortReason)[code - 1].value}"


def test_verification_reports_the_first_failing_channel():
    cfg = config(2, 2)  # full access at tau = 9
    bits = np.array([[0, 1, 1, 0]] * 8)
    blocks = np.array([[0, 1, 1, 0]] * 8)
    outcomes = bits.copy()
    outcomes[1, 2] = 1 - bits[1, 2]  # wrong channel at 2, before ...
    outcomes[1, 3] = PERP  # ... an orthogonal outcome at 3
    outcomes[2, 1] = PERP
    outcomes[3, 0] = SILENT  # no fire by full access at channel 0
    bits[4, 1] = -1  # channel 1 left undisclosed
    blocks[5] = [1, 0, 1, 1]  # block 0 has one channel, block 1 three
    bits[6] = outcomes[6] = [1, 0, 0, 1]
    blocks[6] = [1, 1, 0, 0]  # both blocks mixed; block 0 is checked first
    bits[7] = outcomes[7] = [0, 0, 1, 0]
    blocks[7] = [1, 0, 0, 1]  # block 0 (channels 1, 2) is mixed and holds no channel 0
    code, channel = _verify_announcement(cfg, outcomes, bits, blocks)
    reasons = [None if c == 0 else list(AbortReason)[c - 1] for c in code]
    assert reasons == [
        None,
        AbortReason.WRONG_CHANNEL,
        AbortReason.PERP_OUTCOME,
        AbortReason.SILENT_AT_FULL_ACCESS,
        AbortReason.INCONSISTENT_DISCLOSURE,
        AbortReason.INCONSISTENT_DISCLOSURE,
        AbortReason.BLOCK_MISMATCH,
        AbortReason.BLOCK_MISMATCH,
    ]
    assert channel.tolist() == [-1, 2, 1, 0, 1, 1, 3, 2]


_MISSED_REASON = {0: AbortReason.WRONG_CHANNEL, 1: AbortReason.WRONG_CHANNEL,
                  PERP: AbortReason.PERP_OUTCOME, SILENT: AbortReason.SILENT_AT_FULL_ACCESS}


def verify_by_docstring(n, k, outcomes, bits, blocks):
    """``_verify_announcement`` for one trial, read off its docstring: the
    first undisclosed channel or channel whose outcome is not its bit, then
    the first block without exactly k or 0 channels, then the first channel
    of the first mixed block whose bit differs from its block's first one."""
    for channel, (outcome, bit) in enumerate(zip(outcomes, bits)):
        if bit < 0:
            return AbortReason.INCONSISTENT_DISCLOSURE, channel
        if outcome != bit:
            return _MISSED_REASON[outcome], channel
    members = [[c for c, b in enumerate(blocks) if b == block] for block in range(n)]
    for channels in members:
        if len(channels) not in (0, k):
            return AbortReason.INCONSISTENT_DISCLOSURE, channels[0]
    for channels in members:
        for channel in channels:
            if bits[channel] != bits[channels[0]]:
                return AbortReason.BLOCK_MISMATCH, channel
    return None, -1


@pytest.mark.parametrize("n, k", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_verification_agrees_with_its_docstring_on_every_input(n, k):
    # every outcome code, announced bit (-1 undisclosed) and block id on every channel
    nk = n * k
    rows = np.indices((4,) * nk + (3,) * nk + (n,) * nk).reshape(3 * nk, -1).T
    rows[:, nk:2 * nk] -= 1
    code, channel = _verify_announcement(config(n, k), rows[:, :nk], rows[:, nk:2 * nk], rows[:, 2 * nk:])
    reasons = [None, *AbortReason]
    got = list(zip([reasons[c] for c in code.tolist()], channel.tolist()))
    expected = [verify_by_docstring(n, k, row[:nk], row[nk:2 * nk], row[2 * nk:]) for row in rows.tolist()]
    assert got == expected


def honest_announcement(n, k, rows):
    """``rows`` copies of an honest announcement: channel c in block c // k, block b of value b % 2."""
    blocks = np.tile(np.arange(n * k) // k, (rows, 1))
    return blocks % 2, blocks


@pytest.mark.parametrize("n, k", [(2, 2), (3, 1), (1, 3)])
def test_verdict_reasons_follow_the_first_failing_channel_law(n, k):
    # each channel shows its bit, PERP or SILENT, independently, with the
    # weights below; the first channel that fails names the reason, so reason r
    # has weight p_r / q * (1 - (1 - q)^(N k)), q the total fail weight
    weights = {PERP: Fraction(1, 7), SILENT: Fraction(2, 9)}
    q, nk = sum(weights.values()), n * k
    classes = np.indices((3,) * nk).reshape(nk, -1).T  # 0 the bit, 1 PERP, 2 SILENT
    bits, blocks = honest_announcement(n, k, len(classes))
    outcomes = np.choose(classes, [bits, PERP, SILENT])
    code, _ = _verify_announcement(config(n, k), outcomes, bits, blocks)
    law = {}
    for row, c in zip(outcomes.tolist(), code.tolist()):
        law[c] = law.get(c, 0) + math.prod(weights.get(o, 1 - q) for o in row)
    assert law == {0: (1 - q) ** nk} | {
        list(AbortReason).index(_MISSED_REASON[o]) + 1: p / q * (1 - (1 - q) ** nk) for o, p in weights.items()
    }


class _PassCoins(np.random.Generator):
    """Draws of a real generator, except that the third ``random`` call, the
    pass coins of a compact delayed copy, reads ``coins``."""

    def __init__(self, coins):
        super().__init__(np.random.PCG64(0))
        self.coins, self.calls = coins, 0

    def random(self, size=None):
        self.calls += 1
        return self.coins if self.calls == 3 else super().random(size)


@pytest.mark.parametrize("n, k, m", [(2, 2, 1), (3, 2, 2), (4, 1, 2)])
def test_delayer_acceptance_is_the_pass_probability_per_delayed_channel(n, k, m):
    # every pass (coin 0) or fail (the largest draw below 1) of the m k delayed
    # channels, classed by _rear_copies, weighted by the pass probability p
    state = config(n, k).make_state()
    p_pass = _delay_pass_probability(state)
    passes = np.indices((2,) * (m * k)).reshape(m * k, -1).T.astype(bool)
    bits, blocks = honest_announcement(n, k, len(passes))
    delayed = blocks >= n - m  # the last m blocks
    coins = np.where(passes, 0.0, 1.0 - 2.0**-53)
    outcomes = bits.copy()
    outcomes[delayed] = state._rear_copies(_PassCoins(coins), bits[delayed].reshape(coins.shape), p_pass)[1].ravel()
    code, _ = _verify_announcement(config(n, k), outcomes, bits, blocks)
    p = Fraction(p_pass)
    accepted = sum(p ** int(row.sum()) * (1 - p) ** int((~row).sum()) for row in passes[code == 0])
    assert accepted == p ** (m * k)


@pytest.mark.parametrize(
    "run, options",
    [
        (lambda cfg, s: run_bit_commitment(cfg, seed=s), {}),
        (lambda cfg, s: run_bit_commitment(cfg, DelayBlocks([1]), seed=s), {"delayed_blocks": {1}}),
        (lambda cfg, s: run_coin_toss(cfg, seed=s), {"coin_toss": True}),
        (
            lambda cfg, s: run_coin_toss(cfg, strategy_b=SendBack(), seed=s),
            {"coin_toss": True, "mirror": True},
        ),
        (
            lambda cfg, s: run_coin_toss(
                cfg, strategy_b=SendBack(), enforce_half_disclosure=False, seed=s
            ),
            {"coin_toss": True, "mirror": True, "staged": False},
        ),
    ],
)
def test_runs_are_the_engine_at_one_trial(run, options):
    cfg = config(4, 1)
    codes = set()
    for seed in range(40):
        res = run(cfg, seed)
        batch = simulate(cfg, 1, seed, **options)
        expected = _verdict_code(batch)
        if expected is None:
            bit = batch.lot[0] if options.get("coin_toss") else batch.parity_a[0]
            expected = f"ACCEPTED:{bit}"
        assert res.verdict.code() == expected
        codes.add(expected.split(":")[0])
    if options.get("delayed_blocks") or options.get("staged", True) and options.get("mirror"):
        assert codes == {"ACCEPTED", "ABORTED"}


def test_batched_trials_match_single_runs_in_distribution():
    cfg = config(2, 2)
    batch = simulate(cfg, 4000, np.random.default_rng(8), delayed_blocks={0})
    assert batch.code.shape == (4000,)
    rate = float(np.mean(batch.accepted))
    assert abs(rate - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 4000)
    aborted = batch.code[~batch.accepted]
    assert set(aborted.tolist()) == {list(AbortReason).index(AbortReason.PERP_OUTCOME) + 1}
    accepted = batch.accepted
    assert np.array_equal(batch.parity_a[accepted], secret_parity(cfg, 4000, 8)[accepted])


def test_mirror_arrival_time_follows_the_round_trip():
    # A reflected hump leaves A at its emission coordinate, crosses the
    # channel twice, and reaches A after 2d: the front hump, emitted in
    # (-w, w), is logged in (2d - w, 2d + w) = (5, 7).  Its light-cone
    # coordinate at A is then shifted by d = 3 into (2, 4), outside both hump
    # windows, and the rear hump lies beyond full access, so the mirror fails.
    d = 3.0
    cfg = config(2, 2, channel_delay=d)
    reflected = []
    for seed in range(30):
        res = run_coin_toss(cfg, strategy_b=SendBack(), seed=seed)
        assert not res.verdict.accepted
        assert res.verdict.reason in {AbortReason.PERP_OUTCOME, AbortReason.SILENT_AT_FULL_ACCESS}
        for e in res.transcript.events:
            if e.kind == "detect" and e.payload["direction"] == "B->A":
                reflected.append(e)
                assert e.t == pytest.approx(e.payload["tau"] + d)
                assert 2 * d - cfg.width < e.t < 2 * d + cfg.width
                assert e.payload["outcome"] == "perp"
    assert reflected


def test_mirror_requires_the_coin_toss():
    # bit commitment has no B->A direction for a mirror to fake
    with pytest.raises(ValueError, match="coin toss"):
        simulate(config(4, 2), 1000, 0, mirror=True)
    assert simulate(config(4, 2), 10, 0, coin_toss=True, mirror=True).ba is not None


def assert_classed_by_coordinates(cfg, batch, mirror=False):
    """A batch's outcome codes and verdicts are those of its placed
    coordinates: the bit the state carries inside a hump window, SILENT past
    the full-access horizon, PERP anywhere else.  A mirror returns A's
    states, whatever bits it announces."""
    front, rear = hump_windows(cfg)
    for taus, outcomes, bits, _ in filter(None, (batch.ab, batch.ba)):
        carried = batch.ab[2] if mirror else bits
        missed = np.where(taus > cfg.full_access_horizon, SILENT, PERP)
        assert np.array_equal(outcomes, np.where(inside(front, taus) | inside(rear, taus), carried, missed))
    code, channel = _verify_announcement(cfg, *batch.ab[1:])
    if not mirror:  # a mirroring peer checks nothing
        assert np.array_equal(batch.by_b, code != 0)
    if batch.ba is not None:
        code_ba, channel_ba = _verify_announcement(cfg, *batch.ba[1:])
        code, channel = np.where(batch.by_b, code, code_ba), np.where(batch.by_b, channel, channel_ba)
    assert np.array_equal(batch.code, code) and np.array_equal(batch.channel, channel)


class EdgeFires(np.random.Generator):
    """A commitment's generator that puts every fire on a hump window's edge:
    U = 0 and V alternating 0 and 1/2 give t = +-1.  A bit commitment draws
    its uniforms for the permutation, the hump coins, U, then V."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        if self.calls == 3:
            return np.zeros(size)
        if self.calls == 4:
            return np.resize([0.0, 0.5], size)
        return super().random(size)


@pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
def test_fires_on_a_window_edge_are_perp(width):
    cfg = config(2, 2, width=width)
    batch = simulate(cfg, 50, EdgeFires(3))
    assert (batch.ab[1] == PERP).all()
    assert (batch.code == list(AbortReason).index(AbortReason.PERP_OUTCOME) + 1).all()
    assert_classed_by_coordinates(cfg, batch)


@pytest.mark.parametrize("width", [1e-15, 1e-14, 1e-10, 1.0])
@pytest.mark.parametrize("options", [{}, {"coin_toss": True}])
def test_outcomes_are_the_classes_of_the_coordinates(width, options):
    # at width 1e-15 against separation 8 rounding puts some fires on a window
    # edge, yet in the model a compact fire with U > 0 lies inside its window,
    # so there every outcome is its bit and the honest run accepts
    cfg = config(8, 4, width=width)
    front, rear = hump_windows(cfg)
    for seed in range(3):
        batch = simulate(cfg, 400, seed, **options)
        taus = batch.ab[0]
        assert (~(inside(front, taus) | inside(rear, taus))).any() == (width == 1e-15)
        if width == 1e-15:
            for _, outcomes, bits, _ in filter(None, (batch.ab, batch.ba)):
                assert np.array_equal(outcomes, bits)
            assert batch.accepted.all()
        else:
            assert_classed_by_coordinates(cfg, batch)
        assert not (batch.ab[1] == PERP).any()


@pytest.mark.parametrize("staged", [True, False])
def test_mirrored_outcomes_are_the_classes_of_the_shifted_coordinates(staged):
    cfg = config(3, 2, channel_delay=0.7)
    for seed in range(3):
        batch = simulate(cfg, 400, seed, coin_toss=True, mirror=True, staged=staged)
        assert_classed_by_coordinates(cfg, batch, mirror=True)
        assert (batch.ba[1] == PERP).any()


@pytest.mark.parametrize("xi", [1.0, 4.0])
@pytest.mark.parametrize("options", [{}, {"coin_toss": True}])
def test_tailed_outcomes_are_the_classes_of_the_coordinates(xi, options):
    # a Gaussian fire outside both windows is PERP before full access and SILENT after it
    cfg = config(4, 2, tail_exponent=xi)
    batch = simulate(cfg, 2000, 11, **options)
    assert_classed_by_coordinates(cfg, batch)
    for arrays in filter(None, (batch.ab, batch.ba)):
        assert {PERP, SILENT} <= set(arrays[1].ravel().tolist())
    reasons = {list(AbortReason)[c - 1] for c in batch.code.tolist() if c}
    assert {AbortReason.PERP_OUTCOME, AbortReason.SILENT_AT_FULL_ACCESS} <= reasons


def test_delayed_gaussian_outcomes_are_classed():
    # a delayed state that fails fires anywhere in the rear hump, its window
    # included, so it is SILENT past full access and PERP before it
    cfg = config(4, 2, tail_exponent=1.0)
    batch = simulate(cfg, 2000, 12, delayed_blocks={0, 2})
    taus, outcomes, bits, blocks = batch.ab
    front, rear = hump_windows(cfg)
    delayed, late = np.isin(blocks, [0, 2]), taus > cfg.full_access_horizon
    honest = np.where(inside(front, taus) | inside(rear, taus), bits, np.where(late, SILENT, PERP))
    assert np.array_equal(outcomes[~delayed], honest[~delayed])
    assert np.array_equal(outcomes[delayed] == SILENT, late[delayed])
    passed = delayed & (outcomes == bits)
    assert inside(rear, taus[passed]).all()
    assert (outcomes[delayed & ~passed & ~late] == PERP).all()
    assert {PERP, SILENT} <= set(outcomes[delayed].tolist())
    code, channel = _verify_announcement(cfg, *batch.ab[1:])
    assert np.array_equal(batch.code, code) and np.array_equal(batch.channel, channel)
    assert list(AbortReason).index(AbortReason.SILENT_AT_FULL_ACCESS) + 1 in code


@pytest.mark.parametrize("coin_toss, mirror, delayed, xi", [
    (False, False, (), None), (True, False, (), None), (True, True, (), None),
    (False, False, (0, 5), None), (False, False, (), 1.0), (True, False, (), 1.0), (False, False, (0, 5), 1.0),
], ids=["False", "True", "mirror", "delayed", "gaussian", "gaussian-True", "gaussian-delayed"])
def test_coordinates_placed_on_read_are_the_sampler_s(coin_toss, mirror, delayed, xi):
    # a mirror's states reach A a channel delay later, so its fires are placed
    # when drawn and shifted by the delay, as Gaussian fires are placed when
    # drawn; the unshifted compact ones, delayed copies aside, are placed on read
    delay = 1e-4 if mirror else 0.0
    cfg = config(8, 4, channel_delay=delay, tail_exponent=xi)
    state, shape = cfg.make_state(), (300, cfg.n_channels)
    batch = simulate(cfg, 300, 5, coin_toss=coin_toss, mirror=mirror, delayed_blocks=delayed)
    first, second = batch.ab, batch.ab
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    rng = np.random.default_rng(5)
    _, blocks, bits = sample_secret(cfg, 300, rng)
    if coin_toss and not mirror:
        sample_secret(cfg, 300, rng)
    held, taus = np.isin(blocks, delayed), np.empty(shape)
    taus[~held] = state._place_fires(state._fire_draws(rng, bits[~held].shape))
    if delayed:
        taus[held] = state._rear_copies(rng, bits[held], _delay_pass_probability(state))[0]
    assert np.array_equal(first[0], taus) and held.any() == bool(delayed)
    if coin_toss:
        assert np.array_equal(batch.ba[0], state._place_fires(state._fire_draws(rng, shape)) + delay)
    if not delayed:
        assert_classed_by_coordinates(cfg, batch, mirror=mirror)


def test_delayed_outcomes_leave_the_secret_bits_alone():
    cfg = config(4, 2)
    batch = simulate(cfg, 300, 2, delayed_blocks={0, 3})
    assert np.array_equal(batch.ab[2], sample_secret(cfg, 300, np.random.default_rng(2))[2])
    assert (batch.ab[1] == PERP).any()


def test_delayed_runs_draw_fires_for_the_honest_channels_only():
    # draw order: the secret, the fires of the channels not delayed, the copies
    cfg, trials = config(4, 2), 300
    state, rng = cfg.make_state(), np.random.default_rng(2)
    _, blocks, bits = sample_secret(cfg, trials, rng)
    delayed = np.isin(blocks, [0, 3])
    honest, codes = state._outcomes(rng, bits[~delayed])
    copies, copy_codes = state._rear_copies(rng, bits[delayed], _delay_pass_probability(state))
    taus, outcomes, _, _ = simulate(cfg, trials, 2, delayed_blocks={0, 3}).ab
    assert np.array_equal(taus[~delayed], honest()) and np.array_equal(outcomes[~delayed], codes)
    assert np.array_equal(taus[delayed], copies) and np.array_equal(outcomes[delayed], copy_codes)


def test_compact_delayed_copies_are_rear_hump_draws():
    # the rear window is the whole compact hump, so a passing copy and a
    # failing one have one law, the rear hump's; a copy passes at p_pass
    state, rng = config().make_state(), np.random.default_rng(0)
    bits = rng.integers(0, 2, 100_000)
    taus, outcomes = state._rear_copies(rng, bits, 0.3)
    passed = outcomes == bits
    assert within_3_sigma(passed, 0.3)
    assert (outcomes[~passed] == PERP).all()
    for fired in (taus, taus[passed], taus[~passed]):
        assert stats.kstest(fired, state.rear.cdf).pvalue > 0.01


@pytest.mark.parametrize("mirror", [False, True])
def test_delaying_sender_requires_the_bit_commitment(mirror):
    # no protocol here defines a delaying coin-toss initiator
    with pytest.raises(ValueError, match="bit commitment"):
        simulate(config(2, 2), 3, 0, coin_toss=True, mirror=mirror, delayed_blocks={0})


def test_delay_blocks_names_at_least_one_block():
    # delaying no block would be the honest sender under another name
    for blocks in ([], (), set()):
        with pytest.raises(ValueError, match="^blocks names no block$"):
            DelayBlocks(blocks)
    assert DelayBlocks([1, np.int64(1), 0]).blocks == frozenset({0, 1})


# ------------------------------------------------------------- serialization

_ORACLE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def oracle_jsonl(events):
    """The plain per-line encoder the writer must match byte for byte."""
    return "".join(
        _ORACLE.encode({"t": e.t, "actor": e.actor, "kind": e.kind, "payload": e.payload}) + "\n"
        for e in events
    )


def bytes_or_error(write, events):
    try:
        return write(events)
    except Exception as exc:  # the writer must raise what the encoder raises
        return type(exc)


_RUNS = {
    "bc_honest": lambda cfg, seed: run_bit_commitment(cfg, seed=seed),
    "bc_delay_guess": lambda cfg, seed: run_bit_commitment(
        cfg, DelayBlocks({0}), EarlyGuess(), seed=seed),
    "ct_honest": lambda cfg, seed: run_coin_toss(cfg, seed=seed),
    "ct_guess": lambda cfg, seed: run_coin_toss(cfg, strategy_b=EarlyGuess(), seed=seed),
    "ct_sendback": lambda cfg, seed: run_coin_toss(cfg, strategy_b=SendBack(), seed=seed),
    "ct_sendback_single_shot": lambda cfg, seed: run_coin_toss(
        cfg, strategy_b=SendBack(), enforce_half_disclosure=False, seed=seed),
}


# the runs above and two more, over the sizes, profiles and delays below
_VARIANTS = {
    **_RUNS,
    "bc_delay_two": lambda cfg, seed: run_bit_commitment(cfg, DelayBlocks({0, 1}), seed=seed),
    "ct_single_shot": lambda cfg, seed: run_coin_toss(cfg, enforce_half_disclosure=False, seed=seed),
}
_VARIANT_GRID = [
    (size, xi, delay, seed)
    for size in [(2, 2), (3, 2), (8, 8), (64, 8)]
    for xi in [None, 1.0]
    for delay in [0.0, 0.7]
    for seed in range(3)
]


def variant_runs(name):
    for (n, k), xi, delay, seed in _VARIANT_GRID:
        yield _VARIANTS[name](config(n, k, tail_exponent=xi, channel_delay=delay), seed)


def reported(result):
    """What a run reports besides its transcript, as one line of text."""
    if hasattr(result, "committed_bit"):
        outcome = (result.committed_bit,)
    else:
        outcome = (result.lot, result.winner, result.parity_a, result.parity_b)
    report = result.early_guess
    guess = report and (report.guess, report.confidence, report.committed_bit, report.correct)
    return f"{result.verdict.code()} {outcome!r} {guess!r}\n"


def test_engine_runs_keep_their_bytes():
    # one SHA-256 over every variant's JSONL and report, taken from the
    # per-event writer that sorted Event objects and re-taken in 0.13.0, whose
    # delaying runs draw fewer fires; any writer must keep it
    digest = hashlib.sha256()
    for name in sorted(_VARIANTS):
        for result in variant_runs(name):
            digest.update(transcript_to_jsonl(result.transcript).encode())
            digest.update(reported(result).encode())
    assert digest.hexdigest() == "030bc4de6f508d87f68a1879941cb1ab1ba48e46c640225b453530baed4cf6b6"


def test_send_backs_with_a_tiny_channel_delay_keep_their_bytes():
    # mirrors shifted by a small fraction of a width, where every shifted compact
    # fire still lies inside its hump window; taken when such fires were classed
    # by their draws, and kept now that they are placed
    digest = hashlib.sha256()
    for width, fraction, staged in product([0.5, 3.0], [1e-6, 1e-4, 6e-4], [True, False]):
        delay = fraction * width
        for (n, k), seed in product([(2, 2), (3, 2), (8, 8)], range(3)):
            cfg = config(n, k, width=width, channel_delay=delay)
            result = run_coin_toss(cfg, strategy_b=SendBack(), enforce_half_disclosure=staged, seed=seed)
            digest.update(transcript_to_jsonl(result.transcript).encode())
            digest.update(reported(result).encode())
        batch = simulate(config(8, 4, width=width, channel_delay=delay), 300, 7,
                         coin_toss=True, mirror=True, staged=staged)
        for array in (batch.code, batch.channel, *batch.ba[:2]):
            digest.update(array.tobytes())
    assert digest.hexdigest() == "13f5dacaaf5f419836a87a13277fa19912a7320864aa9094eea7e74dcbac840b"


def test_a_negative_zero_channel_delay_writes_the_bytes_of_zero():
    # the two configs are equal and hash alike, so their transcripts must match to the byte
    configs = [config(1, 1, channel_delay=delay) for delay in (-0.0, 0.0)]
    assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])
    texts = [transcript_to_jsonl(run_coin_toss(cfg, strategy_b=SendBack(), seed=0).transcript) for cfg in configs]
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_events_are_the_lines_of_an_engine_transcript(name):
    for result in variant_runs(name):
        text = transcript_to_jsonl(result.transcript)
        assert len(result.transcript.events) == text.count("\n")
        assert oracle_jsonl(result.transcript.events) == text


def test_each_read_of_the_events_is_a_new_copy_of_the_lines():
    transcript = run_coin_toss(config(3, 2), strategy_b=EarlyGuess(), seed=1).transcript
    text = transcript_to_jsonl(transcript)
    first, second = transcript.events, transcript.events
    assert first == second and first is not second and first[0] is not second[0]
    first[0].payload["channel"] = 99
    del first[1]
    first.append(Event(20.0, "A", "note", {"text": "\u00e9"}))
    assert transcript.events == second and transcript_to_jsonl(transcript) == text
    assert oracle_jsonl(second) == text


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_writer_matches_the_reference_encoder_on_engine_transcripts(run):
    for (n, k), xi, delay, seed in (
        (size, xi, delay, seed)
        for size in [(1, 1), (2, 2), (3, 2), (8, 8)]
        for xi in [None, 1.0]
        for delay in [0.0, 0.7, 0.9]
        for seed in range(2)
    ):
        events = _RUNS[run](config(n, k, tail_exponent=xi, channel_delay=delay), seed).transcript.events
        assert transcript_to_jsonl(Transcript(events)) == oracle_jsonl(events), (n, k, xi, delay, seed)


def test_writer_matches_the_reference_encoder_on_integer_times():
    # a hand-built event may carry int times, which the encoder writes bare
    events = [
        Event(0, "A", "emit", {"channel": 0, "delayed": False}),
        Event(1, "B", "mirror", {"channel": 0}),
        Event(2, "A", "detect", {"channel": 0, "outcome": "ch1", "tau": 1, "direction": "B->A"}),
        Event(5, "A", "disclose", {"phase": 1, "channels": [{"channel": 0, "bit": 1, "block": 0}]}),
    ]
    text = transcript_to_jsonl(Transcript(events))
    assert text == oracle_jsonl(events) and '"t":5}' in text


def test_configs_store_real_fields_as_float():
    runs = [
        run_coin_toss(config(2, 2, channel_delay=d, disclosure_time=t), strategy_b=SendBack(), seed=3)
        for d, t in [(1.0, 5.0), (1, 5), (np.float64(1), np.int64(5))]
    ]
    assert all(type(e.t) is float for e in runs[1].transcript.events)
    texts = {transcript_to_jsonl(run.transcript) for run in runs}
    assert len(texts) == 1


_ENGINE_EVENTS = (
    Event(0.0, "A", "emit", {"channel": 0, "delayed": False}),
    Event(0.0, "B", "emit", {"channel": 1, "direction": "B->A"}),
    Event(0.7, "B", "mirror", {"channel": 2}),
    Event(1.25, "B", "detect", {"channel": 3, "outcome": "ch1", "tau": 1.25, "direction": "A->B"}),
    # -0.0 + 0.0 == 0.0: equal to its coordinate, but written differently
    Event(0.0, "A", "detect", {"channel": 4, "outcome": "perp", "tau": -0.0, "direction": "B->A"}),
    Event(5.0, "A", "disclose", {"phase": 1, "channels": [
        {"channel": 0, "bit": 1, "block": 0}, {"channel": 1, "bit": 0, "block": 1}]}),
)
_ODD_VALUES = st.one_of(
    st.sampled_from([
        True, False, None, np.int64(3), np.float64(0.25), math.nan, math.inf, -math.inf,
        -0.0, 0, 2**70, [], (1,), {}, "", "é", 'a"b', "A\\B", "\u2028", "A", "B->A", "perp",
    ]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
_KEYS = st.one_of(
    st.sampled_from(["channel", "delayed", "direction", "outcome", "tau", "phase", "channels",
                     "bit", "block", "extra"]),
    st.text(max_size=3),
    st.integers(-2, 2),
)


def mutate(record: dict, data) -> None:
    """Set, add or drop one key of ``record``."""
    key = data.draw(st.one_of(st.sampled_from(list(record)), _KEYS) if record else _KEYS)
    if data.draw(st.booleans()):
        record.pop(key, None)
    else:
        record[key] = data.draw(_ODD_VALUES)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_writer_matches_the_reference_encoder_on_odd_events(data):
    base = data.draw(st.sampled_from(_ENGINE_EVENTS))
    fields = {"t": base.t, "actor": base.actor, "kind": base.kind,
              "payload": copy.deepcopy(base.payload)}
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(["field", "payload", "item"]))
        if target == "field":
            name = data.draw(st.sampled_from(["t", "actor", "kind"]))
            fields[name] = data.draw(st.one_of(_ODD_VALUES, st.sampled_from(
                ["emit", "mirror", "detect", "disclose", "verdict", "early_guess"])))
        elif target == "item" and isinstance(fields["payload"].get("channels"), list) \
                and fields["payload"]["channels"]:
            items = fields["payload"]["channels"]
            item = items[data.draw(st.integers(0, len(items) - 1))]
            if isinstance(item, dict):
                mutate(item, data)
        else:
            mutate(fields["payload"], data)
    events = [_ENGINE_EVENTS[0], Event(**fields)]
    expected = bytes_or_error(oracle_jsonl, events)
    assert bytes_or_error(lambda ev: transcript_to_jsonl(Transcript(ev)), events) == expected
