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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .parity import _integer, _natural, _validate_nk, exact_parity_guesser
from .wavepacket import PERP, StretchedState, delayed_overlap

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

# The text of outcome codes 0, 1 and PERP (from ``wavepacket``); a SILENT channel writes none.
_OUTCOME_TEXT = ("ch0", "ch1", "perp")


class AuditError(RuntimeError):
    """A transcript violated causality or the disclosure phase ordering."""


def _real(name: str, value) -> float:
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not numeric or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value) + 0.0  # + 0.0 turns -0.0 into 0.0


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

    def __post_init__(self) -> None:
        _validate_nk(self.n_blocks, self.block_len)
        # stored as float (-0.0 as 0.0), so equal geometries give equal transcript bytes
        for name in ("width", "separation", "channel_delay", "tail_exponent", "disclosure_time"):
            if getattr(self, name) is not None or name not in ("tail_exponent", "disclosure_time"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
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

    @property
    def honest_completion(self) -> float:
        """Chance that an honest run passes: a channel fails only by firing outside both hump windows."""
        return self.make_state()._honest_pass() ** self.n_channels

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
        object.__setattr__(self, "blocks", frozenset(_integer("blocks", b) for b in blocks))
        if not self.blocks:  # delaying no block is the honest sender
            raise ValueError("blocks names no block")


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


class Transcript:
    """Time-ordered log of everything both parties emitted and observed.

    A transcript is its JSONL lines: ``Transcript(events)`` encodes each
    event once, and every read of ``events`` parses the lines into new
    events, equal to what an offline reader of the file sees.  An engine run
    passes its lines and the audit's view of the columns it wrote them from.
    """

    def __init__(self, events: Iterable[Event] = (), *, _lines=None, _view=None) -> None:
        self._lines = [_encode(e.t, e.actor, e.kind, e.payload) for e in events] if _lines is None else _lines
        self._view = _view

    @property
    def events(self) -> list[Event]:
        return [Event(**json.loads(line)) for line in self._lines]


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
    direction.  ``parity_a``/``parity_b`` are the announced parities, the
    first also A's committed bit.  ``ab`` and ``ba`` (coin toss only) hold
    (taus, outcome codes, bits, blocks) arrays; each keeps the call that gives its taus,
    made on first read, as verification reads codes only.
    """

    code: np.ndarray
    channel: np.ndarray
    by_b: np.ndarray
    parity_a: np.ndarray
    parity_b: np.ndarray | None
    _ab: tuple
    _ba: tuple | None = None

    @cached_property
    def ab(self) -> tuple:
        return (self._ab[0](), *self._ab[1:])

    @cached_property
    def ba(self) -> tuple | None:
        return None if self._ba is None else (self._ba[0](), *self._ba[1:])

    @property
    def accepted(self) -> np.ndarray:
        return self.code == 0

    @property
    def lot(self) -> np.ndarray:
        return self.parity_a ^ self.parity_b


@lru_cache(maxsize=None)
def _delay_pass_probability(honest: StretchedState) -> float:
    """Best verification-pass probability of a whole-block delayer against ``honest``.

    The most favorable delayed state is an exact copy of the rear hump, which saturates
    the overlap bound: 1/2 for the compact bump, returned as 0.5000000000000001 (one ulp
    above, rounding in the overlap sum), and 1/2 [M_rear(W) + exp(-S^2 / (8 sigma^2))
    M_mid(W)]^2 for the Gaussian, both from the closed-form ``delayed_overlap``, cached per state.
    """
    return delayed_overlap(honest.rear, honest)


def sample_secret(config: ProtocolConfig, trials: int, rng):
    """Draw ``trials`` secrets the way an honest sender does.

    Block values are uniform over all 2^N vectors, then a uniform channel
    permutation hides the blocks: channel c carries slot perm[c], which
    belongs to block perm[c] // k.  Returns (parity, channel blocks, channel
    bits), the last two as (trials, channels) arrays.
    """
    _natural("trials", trials)
    values = rng.integers(0, 2, (trials, config.n_blocks))
    perm = np.argsort(rng.random((trials, config.n_channels)), axis=1)
    blocks = perm // config.block_len
    return values.sum(axis=1) % 2, blocks, values[np.arange(trials)[:, None], blocks]


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


def _phase_one_blocks(config: ProtocolConfig) -> int:
    """Blocks in phase 1 of a staged coin toss, the first ceil(N/2); a mirror guesses the rest."""
    return (config.n_blocks + 1) // 2


# The abort reason of a disclosed channel whose outcome is not its bit, by outcome code.
_OUTCOME_REASON = np.array([_CODE[AbortReason.WRONG_CHANNEL], _CODE[AbortReason.WRONG_CHANNEL],
                            _CODE[AbortReason.PERP_OUTCOME], _CODE[AbortReason.SILENT_AT_FULL_ACCESS]])


def _verify_announcement(config: ProtocolConfig, outcomes, bits, blocks):
    """Full-access verification of one direction, per trial, from the outcome classes.

    Scans channels in index order: a channel that was not disclosed, or
    whose outcome is not its announced bit (the other bit, PERP or SILENT),
    aborts at the first such channel.  Announced block structure is then
    checked for shape (every block exactly block_len channels) and per-block
    uniformity, in block order.  Block ids must lie in [0, n_blocks).
    Returns (verdict code, failing channel) arrays.
    """
    trials = len(bits)
    n, k = config.n_blocks, config.block_len
    rows = np.arange(trials)
    reason = np.where(bits < 0, _CODE[AbortReason.INCONSISTENT_DISCLOSURE],
                      np.where(outcomes == bits, 0, _OUTCOME_REASON[outcomes]))
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
        # the first mixed block fails at its first channel whose bit differs
        # from the bit of the block's first channel
        in_block = blocks == mixed.argmax(axis=1)[:, None]
        lead = bits[rows, in_block.argmax(axis=1)][:, None]
        code[failed] = _CODE[AbortReason.BLOCK_MISMATCH]
        channel[failed] = (in_block & (bits != lead)).argmax(axis=1)[failed]
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
    permutation, B's (honest coin toss), the A->B fire coordinates of the
    channels not delayed, the delayed copies, the B->A coordinates, then a
    mirror's blind guesses.  ``delayed_blocks`` are the ids, each in [0, n_blocks), of the
    blocks a delaying sender withholds.  A mirror (``SendBack``) returns A's
    own states, which reach A one channel delay later on A's light cone;
    with ``staged`` disclosure it must announce the hidden half before
    seeing it.  Every announcement that a party checks is verified in full.
    """
    if mirror and not coin_toss:
        raise ValueError("a mirroring peer takes part in the coin toss only")
    delayed_blocks = frozenset(_integer("delayed_blocks", b) for b in delayed_blocks)
    if delayed_blocks and coin_toss:
        raise ValueError("a delaying sender takes part in the bit commitment only")
    if any(not 0 <= b < config.n_blocks for b in delayed_blocks):
        raise ValueError("delayed block index out of range")
    rng = np.random.default_rng(_natural("rng", rng) if isinstance(rng, (int, np.integer)) else rng)
    state = config.make_state()
    parity_a, blocks_a, bits_a = sample_secret(config, trials, rng)
    if coin_toss and not mirror:
        parity_b, blocks_b, bits_b = sample_secret(config, trials, rng)
    if delayed_blocks:  # fires for the channels not delayed, then the delayed copies
        delayed = np.isin(np.arange(config.n_blocks), list(delayed_blocks))[blocks_a]
        honest, taus, outcomes = ~delayed, np.empty(bits_a.shape), np.empty_like(bits_a)
        fired, outcomes[honest] = state._outcomes(rng, bits_a[honest])
        p_pass = _delay_pass_probability(state)
        taus[delayed], outcomes[delayed] = state._rear_copies(rng, bits_a[delayed], p_pass)
        def placed():  # the honest fires join the copies when the batch is read
            taus[honest] = fired()
            return taus
    else:
        placed, outcomes = state._outcomes(rng, bits_a)
    ab = (placed, outcomes, bits_a, blocks_a)
    if mirror:  # the mirroring peer checks nothing
        code, channel = np.zeros(trials, dtype=np.int64), np.full(trials, -1)
    else:
        code, channel = _verify_announcement(config, *ab[1:])
    by_b = code != 0
    if not coin_toss:
        return Batch(code, channel, by_b, parity_a, None, ab)

    if mirror:
        placed, outcomes = state._outcomes(rng, bits_a, shift=config.channel_delay)
        bits_b, blocks_b, parity_b = bits_a, blocks_a, parity_a
        if staged:
            hidden = blocks_a >= _phase_one_blocks(config)
            bits_b = bits_a.copy()
            bits_b[hidden] = rng.integers(0, 2, int(np.count_nonzero(hidden)))
            blocks_b = _mirror_plan(config, bits_b)
            parity_b = bits_b.sum(axis=1) // config.block_len % 2  # made up, so from bits
    else:
        placed, outcomes = state._outcomes(rng, bits_b)
    ba = (placed, outcomes, bits_b, blocks_b)
    code_ba, channel_ba = _verify_announcement(config, *ba[1:])
    code, channel = np.where(by_b, code, code_ba), np.where(by_b, channel, channel_ba)
    return Batch(code, channel, by_b, parity_a, parity_b, ab, ba)


# ---------------------------------------------------------------- rendering


# Engine lines as the encoder writes them, keys sorted and floats as their repr.  A detection's
# line up to its channel, and on to its tau, is indexed by 3 * direction + outcome code.
_EMIT_BC = '{"actor":"A","kind":"emit","payload":{"channel":%d,"delayed":%s},"t":0.0}'
_EMIT_A = '{"actor":"A","kind":"emit","payload":{"channel":%d,"direction":"A->B"},"t":0.0}'
_EMIT_B = '{"actor":"B","kind":"emit","payload":{"channel":%d,"direction":"B->A"},"t":0.0}'
_MIRROR = '{"actor":"B","kind":"mirror","payload":{"channel":%d},"t":%r}'
_DETECT_HEAD = tuple(f'{{"actor":"{r}","kind":"detect","payload":{{"channel":' for r in "BBBAAA")
_DETECT_MID = tuple(f',"direction":"{d}","outcome":"{o}","tau":' for d in ("A->B", "B->A") for o in _OUTCOME_TEXT)
_DISCLOSE = '{"actor":"%s","kind":"disclose","payload":{"channels":[%s],"phase":%d},"t":%r}'
_ITEM = '{"bit":%d,"block":%d,"channel":%d}'
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode(t, actor, kind, payload) -> str:
    return _JSONL_ENCODER.encode({"t": t, "actor": actor, "kind": kind, "payload": payload})


def _verdict(batch: Batch, bit) -> Verdict:
    """Trial 0's verdict; ``bit`` is what an acceptance announces."""
    code = int(batch.code[0])
    if code == 0:
        return Verdict(True, bit=int(bit[0]))
    return Verdict(False, channel=int(batch.channel[0]), reason=_REASONS[code - 1])


def _render(config, batch, starts, phases, early_guess, verdict_actor, verdict_payload):
    """Trial 0 of ``batch`` as an audited transcript, with B's early guess.

    ``starts`` are the protocol's own (t, lines) groups, emits at t = 0 and
    any mirrors at the channel delay, each placed before the detections at
    its time.  After the detections at their times go B's guess on the A->B
    outcomes fired by tau_d, if ``early_guess``; one disclosure per
    ``phases`` entry (actor, direction, channels), numbered from 1, at tau_d;
    and the verdict at full access.
    """
    delay, horizon, tau_d = config.channel_delay, config.full_access_horizon, config.tau_d
    sides = [(d, arrays) for d, arrays in (("A->B", batch.ab), ("B->A", batch.ba)) if arrays is not None]
    cols = {d: [a[0].tolist() for a in arrays] for d, arrays in sides}
    taus = np.concatenate([arrays[0][0] for _, arrays in sides])
    codes = np.concatenate([arrays[1][0] + 3 * i for i, (_, arrays) in enumerate(sides)])
    channels = np.flatnonzero(taus <= horizon)  # detections up to full access
    taus, codes, channels = taus[channels], codes[channels], channels % config.n_channels
    det_t = taus + delay
    order = np.lexsort((channels, det_t))  # stable: A->B first at equal (t, channel)
    det_t, codes = det_t[order], codes[order].tolist()
    tau_text = list(map(repr, taus[order].tolist()))
    t_text = tau_text if not delay else list(map(repr, det_t.tolist()))
    det_lines = [f'{_DETECT_HEAD[k]}{c}{_DETECT_MID[k]}{tau}}},"t":{t}}}'
                 for k, c, tau, t in zip(codes, channels[order].tolist(), tau_text, t_text)]
    t_d = tau_d + delay  # the wall time of disclosure
    report, guesses, detected, late = None, [], {}, []
    if early_guess:
        taus, outcomes, _, _ = cols["A->B"]
        visible = {c: o for c, (tau, o) in enumerate(zip(taus, outcomes)) if tau <= tau_d and o != PERP}
        guess, confidence = exact_parity_guesser(visible, config.n_blocks, config.block_len)
        fired = {str(c): b for c, b in visible.items()}
        late.append((t_d, [_encode(t_d, "B", "early_guess", {
            "fired": fired, "direction": "A->B", "guess": guess, "confidence": confidence})]))
        guesses.append((t_d, "A->B", fired))
        detected = {("A->B", str(c)): (taus[c] + delay, _OUTCOME_TEXT[b]) for c, b in visible.items()}
        secret = int(batch.parity_a[0])
        report = EarlyGuessReport(guess, confidence, secret, guess == secret)
    items = {d: list(map(_ITEM.__mod__, zip(bits, blocks, range(len(bits)))))
             for d, (_, _, bits, blocks) in cols.items()}
    late.append((t_d, [_DISCLOSE % (actor, ",".join([items[d][c] for c in chosen]), phase, t_d)
                       for phase, (actor, d, chosen) in enumerate(phases, 1)]))
    late.append((horizon + delay, [_encode(horizon + delay, verdict_actor, "verdict", verdict_payload)]))

    lines, times, at = [], [], 0
    for i, (t, group) in enumerate(starts + late):
        cut = int(np.searchsorted(det_t, t, "left" if i < len(starts) else "right"))
        lines += det_lines[at:cut] + group
        times += [det_t[at:cut], np.full(len(group), t)]
        at = cut
    verdicts = [len(lines) - 1]
    lines += det_lines[at:]
    times.append(det_t[at:])
    transcript = Transcript(_lines=lines, _view=(
        np.concatenate(times), [(t_d, phase) for phase in range(1, len(phases) + 1)],
        guesses, detected, verdicts))
    audit_transcript(transcript, config)
    return transcript, report


def run_bit_commitment(
    config: ProtocolConfig,
    strategy_a=HONEST,
    strategy_b=HONEST,
    seed: int = 0,
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
    batch = simulate(config, 1, _natural("seed", seed), delayed_blocks=delayed)
    emits = [_EMIT_BC % (c, "true" if b in delayed else "false")
             for c, b in enumerate(batch.ab[3][0].tolist())]
    phases = [("A", "A->B", range(config.n_channels))]

    verdict = _verdict(batch, batch.parity_a)
    transcript, early = _render(config, batch, [(0.0, emits)], phases,
                                isinstance(strategy_b, EarlyGuess), "B", {"verdict": verdict.code()})
    return BitCommitmentResult(transcript, verdict, int(batch.parity_a[0]), early)


def run_coin_toss(
    config: ProtocolConfig,
    *,
    strategy_b=HONEST,
    enforce_half_disclosure: bool = True,
    seed: int = 0,
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
    batch = simulate(config, 1, _natural("seed", seed), coin_toss=True, mirror=mirror,
                     staged=enforce_half_disclosure)
    nk, delay = config.n_channels, config.channel_delay
    if mirror:
        starts = [(0.0, [_EMIT_A % c for c in range(nk)]), (delay, [_MIRROR % (c, delay) for c in range(nk)])]
    else:  # both emit at t = 0, in channel order, A first
        starts = [(0.0, [line for c in range(nk) for line in (_EMIT_A % c, _EMIT_B % c)])]
    phases = (("A", "A->B", range(nk)), ("B", "B->A", range(nk)))
    if enforce_half_disclosure:
        half, blocks_a = _phase_one_blocks(config), batch.ab[3][0].tolist()
        first = [c for c in range(nk) if blocks_a[c] < half]
        rest = [c for c in range(nk) if blocks_a[c] >= half]
        phases = (("A", "A->B", first), ("B", "B->A", rest),
                  ("A", "A->B", rest), ("B", "B->A", first))

    verdict = _verdict(batch, batch.lot)
    actor, payload = "B" if batch.by_b[0] else "A", {"verdict": verdict.code()}
    lot = winner = parity_a = parity_b = None
    if verdict.accepted:
        parity_a, parity_b, lot = int(batch.parity_a[0]), int(batch.parity_b[0]), verdict.bit
        winner = payload["winner"] = "A" if lot == 0 else "B"
    else:
        payload["by"] = actor
    transcript, early = _render(config, batch, starts, phases, isinstance(strategy_b, EarlyGuess),
                                actor, payload)
    return CoinTossResult(transcript, verdict, lot, winner, parity_a, parity_b, early)


def mirror_guess_acceptance(n_blocks: int, block_len: int) -> Fraction:
    """Exact acceptance probability of the blind mirror under staged disclosure.

    The mirror must announce the ``floor(N/2) * k`` still-undisclosed channel
    values before seeing them.  Its fair guesses are independent of the
    truth, so exactly one guess string passes whatever the truth is, and the
    acceptance is 2^-m for m guessed channels.
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    return Fraction(1, 2 ** ((n_blocks // 2) * block_len))


# The types of the fields the audit compares or iterates; a bool is none of them.
_FIELD_TYPES = {"t": (int, float, np.integer, np.floating), "phase": (int, np.integer),
                "fired": (dict,), "direction": (str,), "channel": (int, np.integer)}


def _field(event: Event, name: str):
    """A finite ``t`` or a payload field the audit reads, which a file may lack or carry as another type."""
    if name != "t" and (not isinstance(event.payload, dict) or name not in event.payload):
        raise AuditError(f"{event.kind} event without {name}")
    value = event.t if name == "t" else event.payload[name]
    if name in _FIELD_TYPES and (isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[name])):
        raise AuditError(f"{event.kind} event with a {type(value).__name__} {name}")
    if name == "t" and not math.isfinite(value):
        raise AuditError(f"{event.kind} event with a non-finite t")
    return value


def audit_transcript(transcript: Transcript, config: ProtocolConfig) -> None:
    """Check causality and phase ordering of a finished transcript.

    Events must be in time order and end in the one verdict.  An early guess
    may only cite, by the str of a channel id, detector records that had
    fired by the guess time, each with the bit (an int, 0 or 1) the log
    shows.  Disclosure must keep its agreed phase order and start no earlier
    than tau_d + channel_delay.  An engine transcript is checked on its
    columns, any other on its events and the payload fields they must carry.
    """
    view = transcript._view
    if view is None:  # the view _render keeps of its columns, read off the events
        events = transcript.events
        view = ([_field(e, "t") for e in events],
                [(e.t, _field(e, "phase")) for e in events if e.kind == "disclose"],
                [(e.t, _field(e, "direction"), _field(e, "fired"))
                 for e in events if e.kind == "early_guess"],
                {(_field(e, "direction"), str(_field(e, "channel"))): (e.t, _field(e, "outcome"))
                 for e in events if e.kind == "detect"},
                [i for i, e in enumerate(events) if e.kind == "verdict"])
    times, disclosures, guesses, detected, verdicts = view
    times = np.asarray(times, dtype=float)
    if (times[1:] < times[:-1] - 1e-12).any():
        raise AuditError("events out of time order")
    if verdicts != [len(times) - 1]:
        raise AuditError("the verdict is not the last event")
    for t, direction, fired in guesses:
        for key, bit in fired.items():
            d = detected.get((direction, key))
            if d is None or d[0] > t + 1e-12:
                raise AuditError("guess cites a record outside its light cone")
            if type(bit) is not int or bit not in (0, 1) or d[1] != _OUTCOME_TEXT[bit]:
                raise AuditError("guess cites a record inconsistent with the log")
    if [phase for _, phase in disclosures] != sorted(phase for _, phase in disclosures):
        raise AuditError("disclosure phases out of order")
    if any(t < config.tau_d + config.channel_delay for t, _ in disclosures):
        raise AuditError("disclosure before the disclosure horizon")


def transcript_to_jsonl(transcript: Transcript) -> str:
    """Serialize a transcript as one stable JSON object per line."""
    return "\n".join(transcript._lines) + "\n"
