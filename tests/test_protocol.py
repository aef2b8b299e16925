import copy
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqprot.experiment import _optimal_guesses
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
    _verify_announcement,
    audit_transcript,
    mirror_guess_acceptance,
    run_bit_commitment,
    run_coin_toss,
    simulate,
    transcript_to_jsonl,
)
from relqprot.wavepacket import StretchedState, Window, delayed_overlap


def config(n=2, k=2, **kwargs):
    return ProtocolConfig(n, k, **kwargs)


def aborts(batch):
    """The abort reasons that occur among a batch's trials."""
    return {list(AbortReason)[c - 1] for c in set(batch.code[~batch.accepted].tolist())}


def within_3_sigma(hits, ref):
    sigma = math.sqrt(ref * (1 - ref) / hits.size)
    return abs(np.mean(hits) - ref) <= 3 * sigma


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
        {"master_seed": "3"},
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
    mass = cfg.make_state().window_mass(Window(-math.inf, t - channel_delay))
    assert mass == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------- bit commitment


def test_honest_commitment_always_accepted():
    batch = simulate(config(3, 2), 300, np.random.default_rng(0))
    assert batch.accepted.all()
    assert np.array_equal(batch.parity_a, batch.committed)


def test_transcript_shape_and_determinism():
    cfg = config(2, 2, master_seed=77)
    first = run_bit_commitment(cfg)
    second = run_bit_commitment(cfg)
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
    assert within_3_sigma(early_guesses(cfg, batch) == batch.committed, 0.75)


@pytest.mark.parametrize("run, coin_toss", [(run_bit_commitment, False), (run_coin_toss, True)])
@pytest.mark.parametrize("n, k, tau_d", [(1, 1, None), (4, 1, None), (2, 3, 5.0)])
def test_reported_early_guess_is_the_guess_on_the_engine_outcomes(run, coin_toss, n, k, tau_d):
    # the rate tests grade early_guesses(); a run must report the same guess
    cfg = config(n, k, disclosure_time=tau_d)
    for seed in range(30):
        report = run(cfg, strategy_b=EarlyGuess(), seed=seed).early_guess
        batch = simulate(cfg, 1, seed, coin_toss=coin_toss)
        assert report.guess == early_guesses(cfg, batch)[0]
        assert report.correct == (report.guess == batch.committed[0])


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
    assert np.array_equal(batch.parity_a, batch.committed)
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
    assert within_3_sigma(early_guesses(cfg, batch) == batch.committed, 0.5 + 2.0**-5)


# -------------------------------------------------------------------- tailed


def test_tailed_honest_completion_rate():
    xi = 3.0
    batch = simulate(config(2, 2, tail_exponent=xi), 4000, np.random.default_rng(0))
    accepted = batch.accepted
    assert np.array_equal(batch.parity_a[accepted], batch.committed[accepted])
    assert within_3_sigma(accepted, (1.0 - math.exp(-xi)) ** 4)
    # both tail failure modes occur at this rate
    assert aborts(batch) == {AbortReason.PERP_OUTCOME, AbortReason.SILENT_AT_FULL_ACCESS}


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


def test_audit_rejects_disordered_events():
    cfg = config(2, 1)
    res = run_bit_commitment(cfg, seed=2)
    events = list(reversed(res.transcript.events))
    with pytest.raises(AuditError):
        audit_transcript(Transcript(events), cfg)


def test_channel_delay_shifts_wall_times_only():
    fast = config(2, 2, master_seed=4)
    slow = config(2, 2, master_seed=4, channel_delay=3.0)
    res_fast = run_bit_commitment(fast)
    res_slow = run_bit_commitment(slow)
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
    bits = np.array([[0, 1, 1, 0]] * 7)
    blocks = np.array([[0, 1, 1, 0]] * 7)
    outcomes = bits.copy()
    taus = np.zeros(bits.shape)
    outcomes[1, 2] = 1 - bits[1, 2]  # wrong channel at 2, before ...
    outcomes[1, 3] = PERP  # ... an orthogonal outcome at 3
    outcomes[2, 1] = PERP
    taus[3, 0], outcomes[3, 0] = 9.5, PERP  # silent beats perp on one channel
    bits[4, 1] = -1  # channel 1 left undisclosed
    blocks[5] = [1, 0, 1, 1]  # block 0 has one channel, block 1 three
    bits[6] = outcomes[6] = [1, 0, 0, 1]
    blocks[6] = [1, 1, 0, 0]  # both blocks mixed; block 0 is checked first
    code, channel = _verify_announcement(cfg, taus, outcomes, bits, blocks)
    reasons = [None if c == 0 else list(AbortReason)[c - 1] for c in code]
    assert reasons == [
        None,
        AbortReason.WRONG_CHANNEL,
        AbortReason.PERP_OUTCOME,
        AbortReason.SILENT_AT_FULL_ACCESS,
        AbortReason.INCONSISTENT_DISCLOSURE,
        AbortReason.INCONSISTENT_DISCLOSURE,
        AbortReason.BLOCK_MISMATCH,
    ]
    assert channel.tolist() == [-1, 2, 1, 0, 1, 1, 3]


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
    assert np.array_equal(batch.parity_a[accepted], batch.committed[accepted])


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
