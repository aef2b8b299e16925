"""The benchmark's workloads: what one round runs and how each op is checked.

Every workload runs rounds of the same three op families, so every
end-to-end metric is measured on every workload:

* sweep cells: one ``run_experiment`` call per spec, at ``jobs=1``;
* transcripts: one ``run_bit_commitment`` or ``run_coin_toss`` call followed
  by ``transcript_to_jsonl``, which is what ``relqprot run`` does;
* the reference set: the exact oracles and closed forms.

The workloads differ in which family carries the load and at what sizes.
A round models one cold CLI invocation, so the public ``parity_posterior``
cache is cleared when a round starts.  Every op is a closed loop with one
caller: the next op starts when the previous one has returned.

Each op's time is also divided by the host's speed around it, measured by
the probe in ``probe.py``, so that the host's drift cancels out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

import numpy as np

import probe
from relqprot import experiment, parity, protocol, wavepacket

PROTOCOL_SCENARIOS = ("bc_honest", "ct_honest", "ct_sendback", "tailed_completion")
RATED_SCENARIOS = PROTOCOL_SCENARIOS + ("parity_guess", "identification")


@dataclass(frozen=True)
class Cell:
    """One sweep spec; ``grid`` is a tuple of (parameter, values) pairs."""

    scenario: str
    grid: tuple
    trials: int

    kind = "cell"

    @property
    def n_cells(self) -> int:
        return math.prod(len(values) for _, values in self.grid)

    def run(self, seed: int):
        spec = experiment.ExperimentSpec(self.scenario, self.grid, self.trials, seed)
        return experiment.run_experiment(spec, jobs=1)

    def check(self, cells) -> list[str]:
        # Statistical bands are graded by the sweep itself and reported as
        # out-of-band cells; only an exact reference that is missed is wrong.
        return [
            f"{self.scenario} {c.params_dict}: exact cell estimate {c.estimate} != {c.reference}"
            for c in cells
            if c.mode == "exact" and not c.passed
        ]

    def smallest(self) -> "Cell":
        return Cell(self.scenario, self.grid, 1)


@dataclass(frozen=True)
class TranscriptOp:
    """One audited protocol run serialized to JSONL."""

    strategy: str
    n_blocks: int
    block_len: int

    kind = "transcript"

    def run(self, seed: int):
        config = protocol.ProtocolConfig(self.n_blocks, self.block_len)
        if self.strategy == "bc_honest":
            result = protocol.run_bit_commitment(config, seed=seed)
        elif self.strategy == "bc_delay_guess":
            result = protocol.run_bit_commitment(
                config, protocol.DelayBlocks({0}), protocol.EarlyGuess(), seed=seed
            )
        elif self.strategy == "ct_honest":
            result = protocol.run_coin_toss(config, seed=seed)
        elif self.strategy == "ct_sendback":
            result = protocol.run_coin_toss(config, strategy_b=protocol.SendBack(), seed=seed)
        else:
            raise ValueError(f"unknown transcript strategy {self.strategy!r}")
        return result, protocol.transcript_to_jsonl(result.transcript)

    def check(self, out) -> list[str]:
        result, text = out
        problems = []
        events = [json.loads(line) for line in text.splitlines()]
        if len(events) != len(result.transcript.events):
            problems.append(
                f"{self}: JSONL holds {len(events)} events, transcript {len(result.transcript.events)}"
            )
        if any(set(e) != {"t", "actor", "kind", "payload"} for e in events):
            problems.append(f"{self}: JSONL line without the event fields")
        if self.strategy == "bc_honest" and not (
            result.verdict.accepted and result.verdict.bit == result.committed_bit
        ):
            problems.append(f"{self}: honest commitment verdict {result.verdict.code()}")
        return problems

    def smallest(self) -> "TranscriptOp":
        return TranscriptOp(self.strategy, 2, 2)


@lru_cache(maxsize=None)
def _block_string_counts(n_blocks: int, block_len: int) -> tuple[int, int]:
    """Independent reference for ``count_block_strings_closed``."""
    if n_blocks * block_len <= parity.DEFAULT_ENUM_BOUND:
        return parity.count_block_strings(n_blocks, block_len)
    n = n_blocks * block_len
    even = sum(math.comb(n, level * block_len) for level in range(0, n_blocks + 1, 2))
    odd = sum(math.comb(n, level * block_len) for level in range(1, n_blocks + 1, 2))
    return even, odd


@dataclass(frozen=True)
class Oracle:
    """One call of a closed-form or exact reference."""

    name: str
    n_blocks: int = 0
    block_len: int = 0
    tail_exponent: float | None = None

    kind = "oracle"

    def run(self, seed: int):
        n, k = self.n_blocks, self.block_len
        if self.name == "count_block_strings_closed":
            return parity.count_block_strings_closed(n, k)
        if self.name == "parity_posterior":
            # every (silent channels, fired ones) evidence pair, from cold
            consistent = 0
            for unfired in range(n * k + 1):
                for fired_ones in range(n * k - unfired + 1):
                    try:
                        parity.parity_posterior(n, k, unfired, fired_ones)
                    except parity.InconsistentEvidenceError:
                        continue
                    consistent += 1
            return consistent, parity.parity_posterior(n, k, n * k, 0)
        if self.name == "mirror_guess_acceptance":
            return protocol.mirror_guess_acceptance(n, k)
        if self.name == "delayed_overlap":
            state = wavepacket.StretchedState.create(1.0, 8.0, 0, self.tail_exponent)
            return wavepacket.delayed_overlap(state.rear, state)
        raise ValueError(f"unknown oracle {self.name!r}")

    def check(self, value) -> list[str]:
        n, k = self.n_blocks, self.block_len
        if self.name == "count_block_strings_closed":
            expected = _block_string_counts(n, k)
            ok = value == expected
        elif self.name == "parity_posterior":
            # with no evidence the posterior is the uniform parity prior
            even, odd = value[1]
            expected = "even == odd at (N*k, 0)"
            ok = even == odd and value[0] > 0
        elif self.name == "mirror_guess_acceptance":
            expected = Fraction(1, 2 ** ((n // 2) * k))
            ok = value == expected
        elif self.tail_exponent is None:
            expected = "0.5 to 1e-9"
            ok = abs(value - 0.5) <= 1e-9
        else:
            expected = f"in (0, 0.5 + e^-{self.tail_exponent}]"
            ok = 0.0 < value <= 0.5 + math.exp(-self.tail_exponent)
        return [] if ok else [f"{self}: got {value}, expected {expected}"]

    def smallest(self) -> "Oracle":
        if self.name == "delayed_overlap":
            return self
        return Oracle(self.name, 2, 2)


def _grid(**params) -> tuple:
    return tuple((name, tuple(values)) for name, values in params.items())


def protocol_cells(trials: int) -> tuple[Cell, ...]:
    """The four protocol scenarios on the sweep grid."""
    return (
        Cell("bc_honest", _grid(n_blocks=[2], block_len=[2]), trials),
        Cell("bc_honest", _grid(n_blocks=[8], block_len=[4]), trials),
        Cell("ct_honest", _grid(n_blocks=[2], block_len=[2]), trials),
        Cell("ct_honest", _grid(n_blocks=[8], block_len=[4]), trials),
        Cell("ct_sendback", _grid(n_blocks=[2], block_len=[1], half_disclosure=[True, False]), trials),
        Cell("ct_sendback", _grid(n_blocks=[6], block_len=[2], half_disclosure=[True, False]), trials),
        Cell("tailed_completion", _grid(tail_exponent=[2.0, 4.0]), trials),
    )


def vectorized_cells(parity_trials: int, draw_trials: int) -> tuple[Cell, ...]:
    """The scenarios that sample whole arrays without the state machine."""
    return (
        # k > 1 cells are graded against the paper's block bound, which the
        # optimal guesser beats (criterion 9b): they land out of band.
        Cell("parity_guess", _grid(n_blocks=[2, 4], block_len=[1, 2, 4]), parity_trials),
        Cell("cheat_detection", _grid(n_blocks=[4], block_len=[2], delayed_blocks=[1, 2]), parity_trials),
        Cell("identification", _grid(separation=[8.0]), draw_trials),
    )


def references(count_sizes, posterior_size, mirror_size) -> tuple[Oracle, ...]:
    """The reference set; N*k = 20 is checked against full enumeration."""
    return (
        *(Oracle("count_block_strings_closed", n, k) for n, k in ((5, 4), *count_sizes)),
        Oracle("parity_posterior", *posterior_size),
        Oracle("mirror_guess_acceptance", *mirror_size),
        Oracle("delayed_overlap"),
        Oracle("delayed_overlap", tail_exponent=4.0),
    )


_SMALL_REFERENCES = references(((64, 8),), (6, 2), (6, 2))

# One latency class, so that the percentiles of the workloads that are not
# about transcripts stay put.  They run right after the protocol cells: after
# a large array op the first few run slow, from cold caches.
_FEW_TRANSCRIPTS = (TranscriptOp("bc_honest", 4, 4),) * 30

# Each size splits into a faster commitment band and a coin-toss band about
# twice as slow, and run-to-run CPU speed moves any one op by up to 40%.  The
# counts below (ops per strategy) put the p50 in the middle of the (8,8)
# commitment band and the p90 in the middle of the (64,8) coin-toss band,
# as far from every band edge as the mix allows.
_TRANSCRIPT_MIX = (
    (("bc_honest", "bc_delay_guess"), (2, 2), 2),
    (("ct_honest", "ct_sendback"), (2, 2), 2),
    (("bc_honest", "bc_delay_guess"), (8, 8), 2),
    (("ct_honest", "ct_sendback"), (8, 8), 1),
    (("bc_honest", "bc_delay_guess"), (64, 8), 1),
    (("ct_honest", "ct_sendback"), (64, 8), 2),
)

# Each workload is the list of ops one round runs, in this order: protocol
# cells, transcripts, vectorized cells, then the reference set.  Why each one
# exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "protocol_sweep": (
        protocol_cells(100)
        + _FEW_TRANSCRIPTS
        + vectorized_cells(parity_trials=1000, draw_trials=10_000)
        + _SMALL_REFERENCES
    ),
    "single_transcripts": (
        protocol_cells(10)
        + tuple(
            TranscriptOp(strategy, n, k)
            for strategies, (n, k), repeats in _TRANSCRIPT_MIX
            for _ in range(repeats)
            for strategy in strategies
        )
        + vectorized_cells(parity_trials=1000, draw_trials=10_000)
        + _SMALL_REFERENCES
    ),
    "exact_oracles": (
        protocol_cells(30)
        + _FEW_TRANSCRIPTS
        + vectorized_cells(parity_trials=100_000, draw_trials=1_000_000)
        + references(((512, 8), (64, 32)), (16, 4), (12, 2))
    ),
}


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems)


def _family(op) -> tuple:
    return (op.kind, getattr(op, "scenario", None))


@dataclass
class RoundRecord:
    """Each op's time in one round, and the probe samples taken around them.

    ``timings`` holds (op, seconds, index of the first probe sample taken
    after the op); a sample is always taken before the first op and after
    the last.
    """

    timings: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)
    cells: int = 0
    cells_out_of_band: int = 0
    posterior_hits: int = 0
    posterior_misses: int = 0

    @property
    def speed(self) -> float:
        """Mean probe time over its nominal time; above 1 the host ran slow."""
        return sum(self.probe_s) / len(self.probe_s) / probe.NOMINAL_S

    def scaled(self, normalized: bool = True):
        """(op, seconds) pairs; if normalized, each op's seconds are divided
        by the speed of the two probe samples around it."""
        if not normalized:
            return [(op, seconds) for op, seconds, _ in self.timings]
        return [
            (op, seconds * 2.0 * probe.NOMINAL_S / (self.probe_s[after - 1] + self.probe_s[after]))
            for op, seconds, after in self.timings
        ]

    @property
    def protocol_trials(self) -> int:
        return sum(
            op.trials * op.n_cells
            for op, _, _ in self.timings
            if op.kind == "cell" and op.scenario in PROTOCOL_SCENARIOS
        )


def run_round(ops: tuple, round_seed: int, tally: Tally) -> RoundRecord:
    """Run every op once, from a cold ``parity_posterior`` cache."""
    record = RoundRecord()
    seeds = np.random.SeedSequence(round_seed).generate_state(len(ops), np.uint64)
    parity.parity_posterior.cache_clear()
    since_probe = 0.0
    previous = None
    for op, seed in zip(ops, seeds):
        # sample before the first op, at each change of op family, and after
        # every PROBE_EVERY_S of work, so that short blocks are bracketed
        if previous is None or _family(op) != _family(previous) or since_probe >= probe.PROBE_EVERY_S:
            record.probe_s.append(probe.sample())
            since_probe = 0.0
        previous = op
        t0 = perf_counter()
        try:
            out = op.run(int(seed >> np.uint64(2)))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            tally.record([f"{op}: {type(exc).__name__}: {exc}"])
            continue
        elapsed = perf_counter() - t0
        since_probe += elapsed
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"{op}: check raised {type(exc).__name__}: {exc}"]
        tally.record(problems)
        record.timings.append((op, elapsed, len(record.probe_s)))
        if op.kind == "cell":
            record.cells += len(out)
            record.cells_out_of_band += sum(c.mode != "exact" and not c.passed for c in out)
    info = parity.parity_posterior.cache_info()
    record.posterior_hits, record.posterior_misses = info.hits, info.misses
    record.probe_s.append(probe.sample())
    return record


def first_calls(ops: tuple) -> None:
    """Call each entry of a workload once, at its smallest size."""
    done = set()
    for op in ops:
        small = op.smallest()
        if small not in done:
            done.add(small)
            small.check(small.run(0))


def determinism_problems(seed: int) -> list[str]:
    """The determinism contract: byte-identical output for any ``--jobs``."""
    problems = []
    specs = (
        experiment.ExperimentSpec("bc_honest", _grid(n_blocks=[2, 3], block_len=[2]), 40, seed),
        experiment.ExperimentSpec("parity_guess", _grid(n_blocks=[2, 4], block_len=[1, 2]), 2000, seed),
    )
    for spec in specs:
        serial = experiment.cells_to_json(experiment.run_experiment(spec, jobs=1))
        pooled = experiment.cells_to_json(experiment.run_experiment(spec, jobs=2))
        if serial != pooled:
            problems.append(f"{spec.scenario}: cells_to_json differs between jobs=1 and jobs=2")
    op = TranscriptOp("ct_sendback", 8, 8)
    if op.run(seed)[1] != op.run(seed)[1]:
        problems.append(f"{op}: a repeat with the same seed gave different JSONL")
    return problems
