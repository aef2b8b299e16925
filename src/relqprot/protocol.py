"""Two-party state machines for bit commitment and coin tossing.

Runs execute on a continuous event timeline: quantum states enter the
channels at t = 0, each detector outcome occurs at a random light-cone
coordinate, classical disclosure happens at the receiver-chosen time, and
verification fires once the full state extent has become accessible.

One array engine, :func:`simulate`, runs any number of independent
instances as ``(trials, channels)`` arrays drawn from one generator; a
single run is its ``trials=1`` case rendered as an event transcript, so a
run is a pure function of (config, strategies, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .parity import exact_parity_guesser
from .wavepacket import StretchedState, delayed_overlap

__all__ = [
    "AbortReason",
    "AuditError",
    "ProtocolConfig",
    "Honest",
    "DelayBlocks",
    "EarlyGuess",
    "SendBack",
    "HONEST",
    "Event",
    "Transcript",
    "Verdict",
    "EarlyGuessReport",
    "BitCommitmentResult",
    "CoinTossResult",
    "Batch",
    "sample_secret",
    "simulate",
    "run_bit_commitment",
    "run_coin_toss",
    "mirror_guess_acceptance",
    "audit_transcript",
    "transcript_to_jsonl",
]


class AbortReason(str, Enum):
    WRONG_CHANNEL = "WRONG_CHANNEL"
    PERP_OUTCOME = "PERP_OUTCOME"
    SILENT_AT_FULL_ACCESS = "SILENT_AT_FULL_ACCESS"
    BLOCK_MISMATCH = "BLOCK_MISMATCH"
    INCONSISTENT_DISCLOSURE = "INCONSISTENT_DISCLOSURE"


# Verdict codes: 0 accepts, and i + 1 aborts for the i-th AbortReason.
_REASONS = tuple(AbortReason)
_CODE = {reason: i + 1 for i, reason in enumerate(_REASONS)}

# Outcome codes: 0 and 1 are the internal bit an outcome revealed, PERP the
# orthogonal complement.  This is the only mapping from codes to text.
PERP = 2
_OUTCOME_TEXT = ("ch0", "ch1", "perp")


class AuditError(RuntimeError):
    """A transcript violated causality or the disclosure phase ordering."""


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not numeric or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ProtocolConfig:
    """Agreed parameters of one protocol instance.

    ``width`` is the hump half-width, ``separation`` the front-to-rear hump
    distance, and ``channel_delay`` the light-cone length of the quantum
    channel, which must stay below the state extent so the rear hump is still
    leaving the sender when the front hump arrives.  ``disclosure_time`` is
    the receiver-chosen horizon at which classical disclosure starts and
    defaults to the midpoint of its admissible interval.
    """

    n_blocks: int
    block_len: int
    width: float = 1.0
    separation: float = 8.0
    channel_delay: float = 0.0
    tail_exponent: float | None = None
    disclosure_time: float | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_blocks", "block_len", "master_seed"):
            _integer(name, getattr(self, name))
        # stored as float, so equal geometries give equal transcript bytes
        for name in ("width", "separation", "channel_delay", "tail_exponent", "disclosure_time"):
            if getattr(self, name) is not None or name not in ("tail_exponent", "disclosure_time"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.n_blocks < 1 or self.block_len < 1:
            raise ValueError("n_blocks and block_len must be at least 1")
        self.make_state()  # the profile rules live with the geometry
        if not 0 <= self.channel_delay < self.separation + 2 * self.width:
            raise ValueError("channel_delay must lie below the state extent")
        if self.disclosure_time is not None and not (
            self.width < self.disclosure_time < self.separation + self.width
        ):
            raise ValueError("disclosure_time must lie in (width, separation + width)")

    @property
    def n_channels(self) -> int:
        return self.n_blocks * self.block_len

    @property
    def tau_d(self) -> float:
        """Disclosure horizon, defaulting to the midpoint of its interval."""
        if self.disclosure_time is not None:
            return self.disclosure_time
        return self.width + self.separation / 2.0

    @property
    def full_access_horizon(self) -> float:
        """Light-cone coordinate at which the entire nominal state is visible."""
        return self.separation + self.width

    def make_state(self) -> StretchedState:
        """The agreed profile; the engine carries each channel's bit apart."""
        return StretchedState.create(self.width, self.separation, 0, self.tail_exponent)


@dataclass(frozen=True)
class Honest:
    """Follow the protocol as agreed."""


@dataclass(frozen=True)
class DelayBlocks:
    """Sender who postpones the choice for whole blocks.

    The delayed states necessarily miss the front hump of the honest profile,
    so each one passes verification with at most the squared-overlap
    probability and lands in the orthogonal outcome otherwise.
    """

    blocks: frozenset[int]

    def __init__(self, blocks: Iterable[int]) -> None:
        object.__setattr__(self, "blocks", frozenset(int(b) for b in blocks))


@dataclass(frozen=True)
class EarlyGuess:
    """Receiver who guesses the secret parity at disclosure time."""


@dataclass(frozen=True)
class SendBack:
    """Coin-toss peer who mirrors arriving states instead of sending any."""


HONEST = Honest()


@dataclass(frozen=True)
class Event:
    t: float
    actor: str
    kind: str
    payload: dict


@dataclass
class Transcript:
    """Time-ordered log of everything both parties emitted and observed."""

    events: list[Event] = field(default_factory=list)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    bit: int | None = None
    channel: int | None = None
    reason: AbortReason | None = None

    def code(self) -> str:
        if self.accepted:
            return f"ACCEPTED:{self.bit}"
        return f"ABORTED:{self.channel}:{self.reason.value}"


@dataclass(frozen=True)
class EarlyGuessReport:
    guess: int
    confidence: float
    committed_bit: int
    correct: bool


@dataclass(frozen=True)
class BitCommitmentResult:
    transcript: Transcript
    verdict: Verdict
    committed_bit: int
    early_guess: EarlyGuessReport | None = None


@dataclass(frozen=True)
class CoinTossResult:
    transcript: Transcript
    verdict: Verdict
    lot: int | None
    winner: str | None
    parity_a: int | None
    parity_b: int | None
    early_guess: EarlyGuessReport | None = None


# ------------------------------------------------------------------- engine


@dataclass(frozen=True)
class Batch:
    """Result of :func:`simulate`, one row per trial.

    ``code`` is the verdict code (0 accepts), ``channel`` the first failing
    channel (-1 when accepted), and ``by_b`` marks aborts B found in A's
    direction.  ``committed`` is the parity of A's block values and
    ``parity_a``/``parity_b`` those of the two announcements.  ``ab`` and
    ``ba`` (coin toss only) hold (taus, outcome codes, bits, blocks) arrays.
    """

    code: np.ndarray
    channel: np.ndarray
    by_b: np.ndarray
    committed: np.ndarray
    parity_a: np.ndarray
    parity_b: np.ndarray | None
    ab: tuple
    ba: tuple | None = None

    @property
    def accepted(self) -> np.ndarray:
        return self.code == 0

    @property
    def lot(self) -> np.ndarray:
        return self.parity_a ^ self.parity_b


@lru_cache(maxsize=None)
def _delay_pass_probability(
    width: float, separation: float, tail_exponent: float | None
) -> float:
    """Best verification-pass probability of a whole-block delayer.

    The most favorable delayed state is an exact copy of the rear hump, which
    saturates the overlap bound: exactly 1/2 for the compact bump and
    1/2 [M_rear(W) + exp(-S^2 / (8 sigma^2)) M_mid(W)]^2 for the Gaussian,
    both from the closed-form ``delayed_overlap``, cached per geometry.
    """
    honest = StretchedState.create(width, separation, 0, tail_exponent)
    return delayed_overlap(honest.rear, honest)


def sample_secret(config: ProtocolConfig, trials: int, rng):
    """Draw ``trials`` secrets the way an honest sender does.

    Block values are uniform over all 2^N vectors, then a uniform channel
    permutation hides the blocks: channel c carries slot perm[c], which
    belongs to block perm[c] // k.  Returns (parity, channel blocks, channel
    bits), the last two as (trials, channels) arrays.
    """
    values = rng.integers(0, 2, (trials, config.n_blocks))
    perm = np.argsort(rng.random((trials, config.n_channels)), axis=1)
    blocks = perm // config.block_len
    return values.sum(axis=1) % 2, blocks, values[np.arange(trials)[:, None], blocks]


def _parity(config: ProtocolConfig, bits):
    return bits.sum(axis=1) // config.block_len % 2


def _sample_outcomes(state: StretchedState, bits, rng, shift: float = 0.0):
    """Fire coordinates (moved by ``shift`` on the receiver's light cone) and
    outcome codes: inside a nominal hump window an outcome reveals the bit,
    anywhere else it lands in the orthogonal complement."""
    taus = state.sample_fire_time(rng, bits.shape) + shift
    front, rear = state.hump_windows()
    return taus, np.where(front.contains(taus) | rear.contains(taus), bits, PERP)


def _mirror_plan(config: ProtocolConfig, bits):
    """Block ids a mirroring peer fabricates for its full announcement.

    Channels are grouped by announced value, in index order, into blocks of
    block_len; when the value totals cannot form such blocks (which implies
    some guess is wrong anyway) a flat sequential grouping is announced.
    """
    k = config.block_len
    ones = np.cumsum(bits, axis=1)
    zeros = np.arange(1, config.n_channels + 1) - ones
    plan = np.where(bits == 1, zeros[:, -1:] // k + (ones - 1) // k, (zeros - 1) // k)
    return np.where(ones[:, -1:] % k == 0, plan, np.arange(config.n_channels) // k)


def _verify_announcement(config: ProtocolConfig, taus, outcomes, bits, blocks):
    """Full-access verification of one direction, per trial.

    Scans channels in index order: a channel that was not disclosed, never
    fired within the full nominal extent, fired orthogonally, or fired
    against its announced bit aborts at the first such channel.  Announced
    block structure is then checked for shape (every block exactly block_len
    channels) and per-block uniformity, in block order.  Block ids must lie
    in [0, n_blocks).  Returns (verdict code, failing channel) arrays.
    """
    trials, nk = bits.shape
    n, k = config.n_blocks, config.block_len
    rows = np.arange(trials)
    reason = np.where(
        bits < 0, _CODE[AbortReason.INCONSISTENT_DISCLOSURE], np.where(
            taus > config.full_access_horizon, _CODE[AbortReason.SILENT_AT_FULL_ACCESS], np.where(
                outcomes == PERP, _CODE[AbortReason.PERP_OUTCOME],
                np.where(outcomes != bits, _CODE[AbortReason.WRONG_CHANNEL], 0))))
    first = (reason != 0).argmax(axis=1)
    code = reason[rows, first]
    channel = np.where(code != 0, first, -1)

    # per (trial, block): announced channels and announced ones
    flat = (blocks + n * rows[:, None]).ravel()
    counts = np.bincount(flat, minlength=trials * n).reshape(trials, n)
    ones = np.bincount(flat, bits.ravel(), trials * n).reshape(trials, n)
    misshapen = (counts != k) & (counts != 0)
    if misshapen.any():
        failed = (code == 0) & misshapen.any(axis=1)
        block = misshapen.argmax(axis=1)[:, None]
        code[failed] = _CODE[AbortReason.INCONSISTENT_DISCLOSURE]
        channel[failed] = (blocks == block).argmax(axis=1)[failed]
    mixed = (ones != 0) & (ones != counts)
    if mixed.any():
        failed = (code == 0) & mixed.any(axis=1)
        # every block of a row still open holds exactly k channels, so sorting
        # by (block, channel) lays its blocks out as consecutive runs of k
        order = np.argsort(blocks * nk + np.arange(nk), axis=1)
        grouped = bits[rows[:, None], order].reshape(trials, n, k)
        differs = (grouped != grouped[:, :, :1]).reshape(trials, nk)
        code[failed] = _CODE[AbortReason.BLOCK_MISMATCH]
        channel[failed] = order[rows, differs.argmax(axis=1)][failed]
    return code, channel


def simulate(
    config: ProtocolConfig,
    trials: int,
    rng,
    coin_toss: bool = False,
    delayed_blocks: Iterable[int] = (),
    mirror: bool = False,
    staged: bool = True,
) -> Batch:
    """Run ``trials`` independent instances as (trials, channels) arrays.

    ``rng`` is a numpy Generator or a seed.  Draw order: A's block values and
    permutation, B's (honest coin toss), the A->B fire coordinates, the
    delayed-block outcomes, the B->A coordinates, then a mirror's blind
    guesses.  ``delayed_blocks`` are the ids, each in [0, n_blocks), of the
    blocks a delaying sender withholds.  A mirror (``SendBack``) returns A's
    own states, which reach A one channel delay later on A's light cone;
    with ``staged`` disclosure it must announce the hidden half before
    seeing it.  Every announcement that a party checks is verified in full.
    """
    if mirror and not coin_toss:
        raise ValueError("a mirroring peer takes part in the coin toss only")
    delayed_blocks = frozenset(delayed_blocks)
    if any(not 0 <= b < config.n_blocks for b in delayed_blocks):
        raise ValueError("delayed block index out of range")
    rng = np.random.default_rng(rng)
    state = config.make_state()
    committed, blocks_a, bits_a = sample_secret(config, trials, rng)
    if coin_toss and not mirror:
        _, blocks_b, bits_b = sample_secret(config, trials, rng)
    taus, outcomes = _sample_outcomes(state, bits_a, rng)
    if delayed_blocks:
        p_pass = _delay_pass_probability(config.width, config.separation, config.tail_exponent)
        delayed = np.isin(np.arange(config.n_blocks), list(delayed_blocks))[blocks_a]
        count = int(np.count_nonzero(delayed))
        q, passed = rng.random(count), rng.random(count) < p_pass
        # a passing state fired in the rear window: draw from the profile there
        lo, hi = state.rear.cdf(state.rear.nominal_interval)
        taus[delayed] = state.rear.ppf(np.where(passed, lo + q * (hi - lo), q))
        outcomes[delayed] = np.where(passed, bits_a[delayed], PERP)
    ab = (taus, outcomes, bits_a, blocks_a)
    if mirror:  # the mirroring peer checks nothing
        code, channel = np.zeros(trials, dtype=np.int64), np.full(trials, -1)
    else:
        code, channel = _verify_announcement(config, *ab)
    by_b = code != 0
    if not coin_toss:
        return Batch(code, channel, by_b, committed, _parity(config, bits_a), None, ab)

    if mirror:
        taus, outcomes = _sample_outcomes(state, bits_a, rng, shift=config.channel_delay)
        bits_b, blocks_b = bits_a, blocks_a
        if staged:
            hidden = blocks_a >= (config.n_blocks + 1) // 2
            bits_b = bits_a.copy()
            bits_b[hidden] = rng.integers(0, 2, int(np.count_nonzero(hidden)))
            blocks_b = _mirror_plan(config, bits_b)
    else:
        taus, outcomes = _sample_outcomes(state, bits_b, rng)
    ba = (taus, outcomes, bits_b, blocks_b)
    code_ba, channel_ba = _verify_announcement(config, *ba)
    code, channel = np.where(by_b, code, code_ba), np.where(by_b, channel, channel_ba)
    parities = _parity(config, bits_a), _parity(config, bits_b)
    return Batch(code, channel, by_b, committed, *parities, ab, ba)


# ---------------------------------------------------------------- rendering


_KIND_ORDER = {
    "emit": 0,
    "mirror": 1,
    "detect": 2,
    "early_guess": 3,
    "disclose": 4,
    "verdict": 5,
}


def _event_key(event: Event):
    sub = event.payload.get("phase", event.payload.get("channel", -1))
    return (event.t, _KIND_ORDER.get(event.kind, 9), sub)


def _detect_events(config, taus, outcomes, actor, direction):
    delay, horizon = config.channel_delay, config.full_access_horizon
    return [
        Event(tau + delay, actor, "detect",
              {"channel": c, "outcome": _OUTCOME_TEXT[out], "tau": tau, "direction": direction})
        for c, (tau, out) in enumerate(zip(taus, outcomes))
        if tau <= horizon
    ]


def _make_guess(config, taus, outcomes, committed_bit, events):
    """Receiver B's optimal guess from the A->B outcomes fired by tau_d."""
    visible = {
        c: out for c, (tau, out) in enumerate(zip(taus, outcomes)) if tau <= config.tau_d and out != PERP
    }
    guess = exact_parity_guesser(visible, config.n_blocks, config.block_len)
    payload = {"fired": {str(c): b for c, b in visible.items()}, "direction": "A->B",
               "guess": guess.guess, "confidence": guess.confidence}
    events.append(Event(config.tau_d + config.channel_delay, "B", "early_guess", payload))
    return EarlyGuessReport(
        guess.guess, guess.confidence, committed_bit, guess.guess == committed_bit
    )


def _disclose(config, events, actor, phase, bits, blocks, channels) -> None:
    items = [{"channel": c, "bit": bits[c], "block": blocks[c]} for c in channels]
    t_d = config.tau_d + config.channel_delay
    events.append(Event(t_d, actor, "disclose", {"phase": phase, "channels": items}))


def _verdict(batch: Batch, bit) -> Verdict:
    """Trial 0's verdict; ``bit`` is what an acceptance announces."""
    code = int(batch.code[0])
    if code == 0:
        return Verdict(True, bit=int(bit[0]))
    return Verdict(False, channel=int(batch.channel[0]), reason=_REASONS[code - 1])


def run_bit_commitment(
    config: ProtocolConfig,
    strategy_a=HONEST,
    strategy_b=HONEST,
    seed: int | None = None,
) -> BitCommitmentResult:
    """Execute one commitment: emission, growing access, disclosure, verdict.

    The sender commits the parity of the scattered block string at t = 0; the
    receiver accumulates outcomes, optionally guesses the parity just before
    requesting disclosure, and verifies every channel plus the block
    structure once the full state extent has arrived.
    """
    if not isinstance(strategy_a, (Honest, DelayBlocks)):
        raise ValueError("sender strategy must be Honest or DelayBlocks")
    if not isinstance(strategy_b, (Honest, EarlyGuess)):
        raise ValueError("receiver strategy must be Honest or EarlyGuess")
    delayed = strategy_a.blocks if isinstance(strategy_a, DelayBlocks) else frozenset()
    seed = config.master_seed if seed is None else seed
    batch = simulate(config, 1, seed, delayed_blocks=delayed)
    committed = int(batch.committed[0])
    taus, outcomes, bits, blocks = (a[0].tolist() for a in batch.ab)
    nk = config.n_channels

    events = [
        Event(0.0, "A", "emit", {"channel": c, "delayed": blocks[c] in delayed})
        for c in range(nk)
    ]
    events.extend(_detect_events(config, taus, outcomes, "B", "A->B"))
    early = None
    if isinstance(strategy_b, EarlyGuess):
        early = _make_guess(config, taus, outcomes, committed, events)
    _disclose(config, events, "A", 1, bits, blocks, range(nk))

    verdict = _verdict(batch, batch.parity_a)
    t_verify = config.full_access_horizon + config.channel_delay
    events.append(Event(t_verify, "B", "verdict", {"verdict": verdict.code()}))

    transcript = Transcript(sorted(events, key=_event_key))
    audit_transcript(transcript, config)
    return BitCommitmentResult(transcript, verdict, committed, early)


def run_coin_toss(
    config: ProtocolConfig,
    *,
    strategy_b=HONEST,
    enforce_half_disclosure: bool = True,
    seed: int | None = None,
) -> CoinTossResult:
    """Execute one coin toss with staged or single-shot classical disclosure.

    Both peers emit block-coded strings at t = 0 and the lot is the XOR of
    the two announced parities (the initiator wins on 0 by the pre-agreed
    mapping).  With staged disclosure the responder's first batch must cover
    the channel indices the initiator has not yet disclosed, which is what
    forces a mirroring cheater into blind per-channel guesses.  Only an
    honest initiator is modeled.
    """
    if not isinstance(strategy_b, (Honest, EarlyGuess, SendBack)):
        raise ValueError("peer strategy must be Honest, EarlyGuess, or SendBack")
    mirror = isinstance(strategy_b, SendBack)
    seed = config.master_seed if seed is None else seed
    batch = simulate(
        config, 1, seed, coin_toss=True, mirror=mirror, staged=enforce_half_disclosure
    )
    taus_ab, outcomes_ab, bits_a, blocks_a = (a[0].tolist() for a in batch.ab)
    taus_ba, outcomes_ba, bits_b, blocks_b = (a[0].tolist() for a in batch.ba)
    nk = config.n_channels

    events = [
        Event(0.0, "A", "emit", {"channel": c, "direction": "A->B"}) for c in range(nk)
    ]
    events.extend(
        Event(config.channel_delay, "B", "mirror", {"channel": c}) if mirror
        else Event(0.0, "B", "emit", {"channel": c, "direction": "B->A"})
        for c in range(nk)
    )
    events.extend(_detect_events(config, taus_ab, outcomes_ab, "B", "A->B"))
    events.extend(_detect_events(config, taus_ba, outcomes_ba, "A", "B->A"))
    early = None
    if isinstance(strategy_b, EarlyGuess):
        early = _make_guess(config, taus_ab, outcomes_ab, int(batch.committed[0]), events)

    if enforce_half_disclosure:
        first_blocks = (config.n_blocks + 1) // 2
        s_a = [c for c in range(nk) if blocks_a[c] < first_blocks]
        comp = [c for c in range(nk) if blocks_a[c] >= first_blocks]
        _disclose(config, events, "A", 1, bits_a, blocks_a, s_a)
        _disclose(config, events, "B", 2, bits_b, blocks_b, comp)
        _disclose(config, events, "A", 3, bits_a, blocks_a, comp)
        _disclose(config, events, "B", 4, bits_b, blocks_b, s_a)
    else:
        _disclose(config, events, "A", 1, bits_a, blocks_a, range(nk))
        _disclose(config, events, "B", 2, bits_b, blocks_b, range(nk))

    lot = winner = parity_a = parity_b = failed_by = None
    verdict = _verdict(batch, batch.lot)
    if verdict.accepted:
        parity_a, parity_b, lot = int(batch.parity_a[0]), int(batch.parity_b[0]), verdict.bit
        winner = "A" if lot == 0 else "B"
    else:
        failed_by = "B" if batch.by_b[0] else "A"
    t_verify = config.full_access_horizon + config.channel_delay
    payload = {"verdict": verdict.code()}
    if failed_by:
        payload["by"] = failed_by
    if winner:
        payload["winner"] = winner
    events.append(Event(t_verify, failed_by or "A", "verdict", payload))

    transcript = Transcript(sorted(events, key=_event_key))
    audit_transcript(transcript, config)
    return CoinTossResult(transcript, verdict, lot, winner, parity_a, parity_b, early)


def mirror_guess_acceptance(n_blocks: int, block_len: int) -> Fraction:
    """Exact acceptance probability of the blind mirror under staged disclosure.

    The mirror must announce the ``floor(N/2) * k`` still-undisclosed channel
    values before seeing them.  Its fair guesses are independent of the
    truth, so exactly one guess string passes whatever the truth is, and the
    acceptance is 2^-m for m guessed channels.
    """
    if n_blocks < 1 or block_len < 1:
        raise ValueError("n_blocks and block_len must be at least 1")
    return Fraction(1, 2 ** ((n_blocks // 2) * block_len))


def audit_transcript(transcript: Transcript, config: ProtocolConfig) -> None:
    """Check causality and phase ordering of a finished transcript.

    Every early guess may only cite detector records that had fired by the
    guess time with the outcomes the log actually contains, and staged
    disclosure must appear in its agreed phase order.
    """
    times = [e.t for e in transcript.events]
    for before, after in zip(times, times[1:]):
        if after < before - 1e-12:
            raise AuditError("events out of time order")
    detections = {}
    for e in transcript.events:
        if e.kind == "detect":
            detections[(e.payload["direction"], e.payload["channel"])] = e
    for e in transcript.events:
        if e.kind != "early_guess":
            continue
        direction = e.payload.get("direction", "A->B")
        for c_str, bit in e.payload["fired"].items():
            d = detections.get((direction, int(c_str)))
            if d is None or d.t > e.t + 1e-12:
                raise AuditError("guess cites a record outside its light cone")
            if bit not in (0, 1) or d.payload["outcome"] != _OUTCOME_TEXT[bit]:
                raise AuditError("guess cites a record inconsistent with the log")
    phases = [e.payload["phase"] for e in transcript.events if e.kind == "disclose"]
    if phases != sorted(phases):
        raise AuditError("disclosure phases out of order")


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_NUMBERS, _INF = (int, float), math.inf
_ACTORS, _DIRECTIONS = ("A", "B"), ("A->B", "B->A")


def _template_line(e: Event) -> str | None:
    """An engine event's line from the template of its kind and payload keys,
    byte-identical to the encoder's; None for any other event.  Values go in
    as the repr of an exact int or a finite float, or from a known string set."""
    p, t, kind = e.payload, e.t, e.kind
    if not (type(p) is dict and type(t) in _NUMBERS and -_INF < t < _INF
            and type(e.actor) is str and e.actor in _ACTORS and type(kind) is str):
        return None
    c, d, out, tau = p.get("channel"), p.get("direction"), p.get("outcome"), p.get("tau")
    c_ok, d_ok, t_text = type(c) is int, type(d) is str and d in _DIRECTIONS, repr(t)
    if (kind == "detect" and len(p) == 4 and c_ok and d_ok and type(out) is str
            and out in _OUTCOME_TEXT and type(tau) in _NUMBERS and -_INF < tau < _INF):
        # with no channel delay t == tau; 0.0 == -0.0 but is written apart
        tau_text = t_text if tau == t and tau and type(tau) is type(t) else repr(tau)
        body = f'"channel":{c},"direction":"{d}","outcome":"{out}","tau":{tau_text}'
    elif kind == "emit" and len(p) == 2 and c_ok and type(p.get("delayed")) is bool:
        body = f'"channel":{c},"delayed":{"true" if p["delayed"] else "false"}'
    elif kind == "emit" and len(p) == 2 and c_ok and d_ok:
        body = f'"channel":{c},"direction":"{d}"'
    elif kind == "mirror" and len(p) == 1 and c_ok:
        body = f'"channel":{c}'
    elif kind == "disclose" and len(p) == 2 and type(p.get("phase")) is int \
            and type(p.get("channels")) is list:
        items = [f'{{"bit":{i["bit"]},"block":{i["block"]},"channel":{i["channel"]}}}'
                 if type(i) is dict and len(i) == 3
                 and type(i.get("bit")) is type(i.get("block")) is type(i.get("channel")) is int
                 else None for i in p["channels"]]
        if None in items:
            return None
        body = f'"channels":[{",".join(items)}],"phase":{p["phase"]}'
    else:
        return None
    return f'{{"actor":"{e.actor}","kind":"{kind}","payload":{{{body}}},"t":{t_text}}}'


def transcript_to_jsonl(transcript: Transcript) -> str:
    """Serialize a transcript as one stable JSON object per line.  Any event
    no template covers goes through the general encoder, so the bytes (and
    any error raised) are always the encoder's."""
    lines = [
        _template_line(e)
        or _JSONL_ENCODER.encode({"t": e.t, "actor": e.actor, "kind": e.kind, "payload": e.payload})
        for e in transcript.events
    ]
    return "\n".join(lines) + "\n"
