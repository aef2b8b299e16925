"""Seeded Monte Carlo campaigns with closed-form references.

A campaign sweeps a parameter grid for one scenario, estimates the success
probability per cell, and grades each estimate against the matching
closed-form value by one rule: the cell passes iff its binomial z-score lies
within three sigma.  A reference of exactly 0 or 1 gives z = 0 on a match
and infinity otherwise, so such a cell (labelled ``exact``) passes only on
equality; every other cell is labelled ``two_sided``.  Results are
bit-identical for a given spec and master seed regardless of worker count,
because every cell seeds its own substream.  The protocol scenarios run all
of a cell's trials through the batched engine of ``protocol.simulate``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .measurement import composite_error
from .parity import _integer, _natural, _optimal_guesses, pc_parity_optimal
from .parity import exact_parity_guesser  # noqa: F401  (bound for tracers)
from .protocol import (
    ProtocolConfig,
    _delay_pass_probability,
    _real,
    mirror_guess_acceptance,
    simulate,
)
from .protocol import run_bit_commitment, run_coin_toss  # noqa: F401  (bound for tracers)
from .wavepacket import Window

__all__ = [
    "SCENARIOS",
    "ExperimentSpec",
    "SummaryCell",
    "wilson_interval",
    "run_experiment",
    "cells_to_csv",
    "cells_to_json",
]

# Bound on trials x channels per engine call, which caps a cell's memory.
_CHUNK_ELEMENTS = 1 << 18

# Grid names that differ from the ProtocolConfig field they set.
_CONFIG_FIELD = {"tau_d": "disclosure_time"}

CSV_SCHEMA_HEADER = "# relqprot sweep schema 1"
# The statistics of a cell that both serializers write, besides its scenario,
# parameters and pass flag.
_STATS = ("trials", "successes", "estimate", "ci_lo", "ci_hi", "reference", "z", "mode")
_CSV_COLUMNS = (
    "scenario", "n_blocks", "block_len", "tail_exponent", "delayed_blocks", "half_disclosure",
    "tau_d", "width", "separation", *_STATS, "pass",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario, a parameter grid, a trial count, and the master seed."""

    scenario: str
    grid: tuple[tuple[str, tuple], ...]
    trials: int
    master_seed: int = 0
    _resolved: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario id: {self.scenario!r}")
        _natural("master_seed", self.master_seed)
        if _integer("trials", self.trials) < 1:
            raise ValueError("trials must be at least 1")
        if not self.grid:
            raise ValueError("parameter grid must not be empty")
        entry = _SCENARIOS[self.scenario]
        for name, values in self.grid:
            if name not in entry.params and name not in entry.options:
                raise ValueError(f"parameter {name!r} not used by {self.scenario}")
            if not values:
                raise ValueError(f"parameter {name!r} has no values")
        # every cell is checked here, so a bad value fails before any trial runs
        resolved = tuple(_resolve(self.scenario, cell) for cell in self.cells())
        object.__setattr__(self, "_resolved", resolved)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        unknown = set(data) - {f.name for f in fields(cls) if f.init}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        raw_grid = data.get("grid", {})
        if not isinstance(raw_grid, dict):
            raise ValueError("grid must be a mapping of parameter to values")
        grid = tuple(
            (name, tuple(v) if isinstance(v, (list, tuple)) else (v,))
            for name, v in sorted(raw_grid.items())
        )
        return cls(
            scenario=data.get("scenario", ""),
            grid=grid,
            trials=data.get("trials", 0),
            master_seed=data.get("master_seed", 0),
        )

    def cells(self) -> list[dict]:
        names = [name for name, _ in self.grid]
        combos = product(*(values for _, values in self.grid))
        return [dict(zip(names, combo)) for combo in combos]


@dataclass(frozen=True)
class SummaryCell:
    scenario: str
    params: tuple[tuple[str, object], ...]
    trials: int
    successes: int
    estimate: float
    ci_lo: float
    ci_hi: float
    reference: float
    z: float
    mode: str
    passed: bool

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval, stable for near-0/1 estimates at small counts."""
    if (trials := _integer("trials", trials)) < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= (successes := _integer("successes", successes)) <= trials:
        raise ValueError(f"successes must lie in [0, trials], got {successes}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _z_score(successes: int, trials: int, reference: float) -> float:
    estimate = successes / trials
    if reference <= 0.0 or reference >= 1.0:
        return 0.0 if estimate == reference else math.inf
    sigma = math.sqrt(reference * (1.0 - reference) / trials)
    return (estimate - reference) / sigma


def _kernel_identification(config, options, trials, seed):
    state = config.make_state()
    rng = np.random.default_rng(seed)
    # the draws die with the call, so no draw array is alive while the bits are drawn
    fired = state._fired_by(state._fire_draws(rng, trials), config.tau_d)
    bits = rng.integers(0, 2, trials)
    successes = int(np.count_nonzero(fired | (bits == 0)))
    mass = state.window_mass(Window(-math.inf, config.tau_d))
    return successes, 1.0 - composite_error(mass, 0.0, 0.5)


def _block_column(rng, k, trials, dtype):
    """One block's value per trial, the low bit of k + 1 uniform bits drawn in words
    of at most 63, and its fires, Bin(k, 1/2) in ``dtype``: the popcount of the other k bits."""
    fires = np.zeros(trials, dtype)
    for width in [63] * (k // 63) + [k % 63 + 1]:
        word = rng.integers(0, 1 << width, trials, dtype=np.min_scalar_type((1 << width) - 1))
        fires += np.bitwise_count(word)
    value = (word & 1).astype(bool)
    fires -= value
    return value, fires


def _kernel_parity_guess(config, options, trials, seed):
    n, k = config.n_blocks, config.block_len
    # no count exceeds N k, so below 2^15 the counts move as int16, a quarter of int64
    dtype = np.int16 if n * k < 1 << 15 else np.int64
    ones, fired = np.zeros((2, trials), dtype)
    parity = np.zeros(trials, bool)
    for col in range(n):
        # Common random numbers: each block column draws from a stream seeded
        # by column only, so cells differing in n_blocks share their leading columns.
        value, fires = _block_column(np.random.default_rng((*seed[:2], k, col)), k, trials, dtype)
        parity ^= value
        ones += value * fires
        fired += fires
    fired -= ones  # now the fired zeros, without a further array
    guesses = _optimal_guesses(n, k, ones, fired)
    return int(np.count_nonzero(guesses == parity)), pc_parity_optimal(n, k)


def _kernel_cheat_detection(config, options, trials, seed):
    m, k = options["delayed_blocks"], config.block_len
    p_pass = _delay_pass_probability(config.make_state())
    coins = np.random.default_rng(seed).random((trials, m * k))
    return int(np.count_nonzero(np.all(coins < p_pass, axis=1))), 0.5 ** (m * k)


def _engine_successes(config, trials, seed, success, **options) -> int:
    """Trials for which ``success(batch)`` holds, run through the protocol
    engine in chunks of at most ``_CHUNK_ELEMENTS`` trial-channels."""
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_ELEMENTS // config.n_channels)
    total = 0
    for start in range(0, trials, chunk):
        batch = simulate(config, min(chunk, trials - start), rng, **options)
        total += int(np.count_nonzero(success(batch)))
    return total


def _kernel_bc(config, options, trials, seed):
    """Honest commitment accepted, announcing the committed bit."""
    return _engine_successes(config, trials, seed, lambda b: b.accepted), config.honest_completion


def _kernel_ct(config, options, trials, seed):
    """Honest coin toss accepted."""
    return _engine_successes(config, trials, seed, lambda b: b.accepted, coin_toss=True), 1.0


def _kernel_sendback(config, options, trials, seed):
    """A mirroring peer, which passes staged disclosure only by guessing and
    forces the zero lot without it."""
    half = options["half_disclosure"]
    successes = _engine_successes(
        config, trials, seed,
        (lambda b: b.accepted) if half else (lambda b: b.accepted & (b.lot == 0)),
        coin_toss=True, mirror=True, staged=half,
    )
    return successes, float(mirror_guess_acceptance(config.n_blocks, config.block_len)) if half else 1.0


class _Scenario(NamedTuple):
    """A scenario's kernel(config, options, trials, seed) -> (successes,
    reference), its default config, its grid parameters that set config fields,
    and the defaults of those that do not, its options; every cell reports them
    all.  ``seed`` is (master seed, scenario code, cell index)."""

    kernel: Callable
    config: ProtocolConfig
    params: tuple[str, ...]
    options: dict = {}


# One declaration per scenario; the order fixes the seed codes.
_SCENARIOS = {
    "identification": _Scenario(
        _kernel_identification, ProtocolConfig(1, 1), ("tau_d", "width", "separation")),
    "parity_guess": _Scenario(
        _kernel_parity_guess, ProtocolConfig(1, 1), ("n_blocks", "block_len")),
    "cheat_detection": _Scenario(
        _kernel_cheat_detection, ProtocolConfig(2, 1), ("n_blocks", "block_len"), {"delayed_blocks": 1}),
    "bc_honest": _Scenario(
        _kernel_bc, ProtocolConfig(2, 2), ("n_blocks", "block_len", "width", "separation")),
    "ct_honest": _Scenario(_kernel_ct, ProtocolConfig(2, 2), ("n_blocks", "block_len")),
    "ct_sendback": _Scenario(
        _kernel_sendback, ProtocolConfig(2, 1), ("n_blocks", "block_len"), {"half_disclosure": True}),
    "tailed_completion": _Scenario(
        _kernel_bc, ProtocolConfig(2, 2, tail_exponent=4.0),
        ("n_blocks", "block_len", "tail_exponent")),
}
SCENARIOS = tuple(_SCENARIOS)


def _checked(name: str, value, default):
    """The one type rule: a grid value takes the type of its default, and a
    default that is neither bool nor int (even None) asks for a real."""
    if isinstance(default, bool):
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        return bool(value)
    if isinstance(default, int):
        return _integer(name, value)
    return _real(name, value)


def _resolve(scenario: str, cell: dict) -> tuple[ProtocolConfig, dict]:
    """One grid cell as its checked ProtocolConfig and options."""
    entry = _SCENARIOS[scenario]
    options, changes = dict(entry.options), {}
    for name, value in cell.items():
        if name in options:
            options[name] = _checked(name, value, entry.options[name])
        else:
            key = _CONFIG_FIELD.get(name, name)
            changes[key] = _checked(name, value, getattr(entry.config, key))
    config = replace(entry.config, **changes)
    if not 1 <= options.get("delayed_blocks", 1) <= config.n_blocks:
        raise ValueError("delayed_blocks must lie in [1, n_blocks]")
    return config, options


def _run_cell(spec: ExperimentSpec, cell_index: int) -> SummaryCell:
    entry = _SCENARIOS[spec.scenario]
    config, options = spec._resolved[cell_index]
    seed = (spec.master_seed, SCENARIOS.index(spec.scenario) + 1, cell_index)
    successes, reference = entry.kernel(config, options, spec.trials, seed)
    # the config's tau_d property reads back the resolved disclosure horizon
    params = {**{name: getattr(config, name) for name in entry.params}, **options}
    ci_lo, ci_hi = wilson_interval(successes, spec.trials)
    z = _z_score(successes, spec.trials, reference)
    return SummaryCell(
        scenario=spec.scenario,
        params=tuple(sorted(params.items())),
        trials=spec.trials,
        successes=successes,
        estimate=successes / spec.trials,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        reference=reference,
        z=z,
        mode="exact" if reference in (0.0, 1.0) else "two_sided",
        passed=abs(z) <= 3.0,
    )


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[SummaryCell]:
    """Evaluate every grid cell; deterministic for a given spec and seed."""
    indices = range(len(spec._resolved))
    if jobs <= 1:
        return [_run_cell(spec, i) for i in indices]
    # a pool forks all its workers at once, so never ask for more than cells
    with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
        return list(pool.map(_run_cell, [spec] * len(indices), indices))


def cells_to_csv(cells: list[SummaryCell]) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA_HEADER + "\n")
    # every parameter has a column; the writer leaves the others empty
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    for cell in cells:
        stats = ((name, getattr(cell, name)) for name in _STATS)
        values = [("scenario", cell.scenario), *cell.params, *stats]
        row = {name: repr(v) if isinstance(v, float) else str(v) for name, v in values}
        row["pass"] = str(cell.passed).lower()
        writer.writerow(row)
    return buf.getvalue()


def cells_to_json(cells: list[SummaryCell]) -> str:
    payload = {
        "schema": 1,
        "cells": [
            {
                **{name: getattr(c, name) for name in _STATS},
                "scenario": c.scenario,
                "params": c.params_dict,
                "z": c.z if math.isfinite(c.z) else None,
                "pass": c.passed,
            }
            for c in cells
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
