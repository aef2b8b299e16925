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
from dataclasses import dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from .measurement import composite_error
from .parity import _evidence_weights, pc_parity_optimal
from .parity import exact_parity_guesser  # noqa: F401  (bound for tracers)
from .protocol import (
    ProtocolConfig,
    _delay_pass_probability,
    _integer,
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

SCENARIOS = (
    "identification",
    "parity_guess",
    "cheat_detection",
    "bc_honest",
    "ct_honest",
    "ct_sendback",
    "tailed_completion",
)

_SCENARIO_CODE = {name: i + 1 for i, name in enumerate(SCENARIOS)}

# Bound on trials x channels per engine call, which caps a cell's memory.
_CHUNK_ELEMENTS = 1 << 18

_ALLOWED_PARAMS = {
    "identification": {"tau_d", "width", "separation"},
    "parity_guess": {"n_blocks", "block_len"},
    "cheat_detection": {"n_blocks", "block_len", "delayed_blocks"},
    "bc_honest": {"n_blocks", "block_len", "width", "separation"},
    "ct_honest": {"n_blocks", "block_len"},
    "ct_sendback": {"n_blocks", "block_len", "half_disclosure"},
    "tailed_completion": {"n_blocks", "block_len", "tail_exponent"},
}

CSV_SCHEMA_HEADER = "# relqprot sweep schema 1"
_CSV_COLUMNS = (
    "scenario",
    "n_blocks",
    "block_len",
    "tail_exponent",
    "delayed_blocks",
    "half_disclosure",
    "tau_d",
    "width",
    "separation",
    "trials",
    "successes",
    "estimate",
    "ci_lo",
    "ci_hi",
    "reference",
    "z",
    "mode",
    "pass",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario, a parameter grid, a trial count, and the master seed."""

    scenario: str
    grid: tuple[tuple[str, tuple], ...]
    trials: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario id: {self.scenario!r}")
        _integer("master_seed", self.master_seed)
        if _integer("trials", self.trials) < 1:
            raise ValueError("trials must be at least 1")
        if not self.grid:
            raise ValueError("parameter grid must not be empty")
        allowed = _ALLOWED_PARAMS[self.scenario]
        for name, values in self.grid:
            if name not in allowed:
                raise ValueError(f"parameter {name!r} not used by {self.scenario}")
            if not values:
                raise ValueError(f"parameter {name!r} has no values")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        unknown = set(data) - {f.name for f in fields(cls)}
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
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


def _cell_rng(master_seed: int, scenario: str, cell_index: int):
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, _SCENARIO_CODE[scenario], cell_index))
    )


def _kernel_identification(params, trials, master_seed, cell_index):
    config = ProtocolConfig(
        1, 1, width=params.get("width", 1.0), separation=params.get("separation", 8.0),
        disclosure_time=_real("tau_d", params["tau_d"]) if "tau_d" in params else None,
    )
    state = config.make_state(0)
    rng = _cell_rng(master_seed, "identification", cell_index)
    taus = state.sample_fire_time(rng, trials)
    bits = rng.integers(0, 2, trials)
    fired = taus <= config.tau_d
    successes = int(np.count_nonzero(fired | (bits == 0)))
    mass = state.window_mass(Window(-math.inf, config.tau_d))
    reference = 1.0 - composite_error(mass, 0.0, 0.5)
    resolved = {"tau_d": config.tau_d, "width": float(config.width),
                "separation": float(config.separation)}
    return successes, reference, resolved


def _optimal_guesses(n, k, ones, zeros):
    """Per-trial optimal parity guess from fired ones and zeros, one law
    evaluation per distinct pair; odd only if strictly heavier (ties to 0)."""
    keys, inverse = np.unique(ones * (n * k + 1) + zeros, return_inverse=True)
    weights = (_evidence_weights(n, k, *divmod(int(key), n * k + 1)) for key in keys)
    return np.array([odd > even for even, odd in weights])[inverse]


def _kernel_parity_guess(params, trials, master_seed, cell_index):
    n = _integer("n_blocks", params.get("n_blocks", 1))
    k = _integer("block_len", params.get("block_len", 1))
    # Common random numbers: per-block value/fire draws are seeded by column
    # only, so cells differing in n_blocks share their leading columns.
    seeds = ((master_seed, _SCENARIO_CODE["parity_guess"], k, col) for col in range(n))
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    values = np.array([rng.integers(0, 2, trials) for rng in rngs])
    fired = np.array([rng.binomial(k, 0.5, trials) for rng in rngs])
    ones = (values * fired).sum(axis=0)
    guesses = _optimal_guesses(n, k, ones, fired.sum(axis=0) - ones)
    successes = int(np.count_nonzero(guesses == values.sum(axis=0) % 2))
    return successes, pc_parity_optimal(n, k), {"n_blocks": n, "block_len": k}


def _kernel_cheat_detection(params, trials, master_seed, cell_index):
    config = ProtocolConfig(params.get("n_blocks", 2), params.get("block_len", 1))
    n, k = config.n_blocks, config.block_len
    m = _integer("delayed_blocks", params.get("delayed_blocks", 1))
    if not 1 <= m <= n:
        raise ValueError("delayed_blocks must lie in [1, n_blocks]")
    p_pass = _delay_pass_probability(config.width, config.separation, config.tail_exponent)
    rng = _cell_rng(master_seed, "cheat_detection", cell_index)
    coins = rng.random((trials, m * k))
    successes = int(np.count_nonzero(np.all(coins < p_pass, axis=1)))
    reference = 0.5 ** (m * k)
    resolved = {"n_blocks": n, "block_len": k, "delayed_blocks": m}
    return successes, reference, resolved


def _engine_successes(config, trials, rng, success, **options) -> int:
    """Trials for which ``success(batch)`` holds, run through the protocol
    engine in chunks of at most ``_CHUNK_ELEMENTS`` trial-channels."""
    chunk = max(1, _CHUNK_ELEMENTS // config.n_channels)
    total = 0
    for start in range(0, trials, chunk):
        batch = simulate(config, min(chunk, trials - start), rng, **options)
        total += int(np.count_nonzero(success(batch)))
    return total


def _kernel_bc(params, trials, master_seed, cell_index, scenario="bc_honest"):
    """Honest commitment accepted with the committed bit: exactly for compact
    profiles, per channel with probability 1 - e^-xi for Gaussian tails."""
    xi = None
    if scenario == "tailed_completion":
        xi = _real("tail_exponent", params.get("tail_exponent", 4.0))
    config = ProtocolConfig(
        params.get("n_blocks", 2), params.get("block_len", 2),
        width=params.get("width", 1.0), separation=params.get("separation", 8.0),
        tail_exponent=xi,
    )
    n, k = config.n_blocks, config.block_len
    successes = _engine_successes(
        config, trials, _cell_rng(master_seed, scenario, cell_index),
        lambda b: b.accepted & (b.parity_a == b.committed),
    )
    if xi is None:
        return successes, 1.0, {"n_blocks": n, "block_len": k}
    resolved = {"n_blocks": n, "block_len": k, "tail_exponent": xi}
    return successes, (1.0 - math.exp(-xi)) ** (n * k), resolved


def _kernel_ct(params, trials, master_seed, cell_index, scenario="ct_honest"):
    """Honest coin toss, or a mirroring peer (ct_sendback) that passes staged
    disclosure only by guessing, and forces the zero lot without it."""
    mirror = scenario == "ct_sendback"
    config = ProtocolConfig(params.get("n_blocks", 2), params.get("block_len", 1 if mirror else 2))
    n, k = config.n_blocks, config.block_len
    half = params.get("half_disclosure", True)
    if not isinstance(half, (bool, np.bool_)):
        raise ValueError(f"half_disclosure must be true or false, got {half!r}")
    half = bool(half)
    successes = _engine_successes(
        config, trials, _cell_rng(master_seed, scenario, cell_index),
        (lambda b: b.accepted) if half else (lambda b: b.accepted & (b.lot == 0)),
        coin_toss=True, mirror=mirror, staged=half,
    )
    if not mirror:
        return successes, 1.0, {"n_blocks": n, "block_len": k}
    resolved = {"n_blocks": n, "block_len": k, "half_disclosure": half}
    reference = float(mirror_guess_acceptance(n, k)) if half else 1.0
    return successes, reference, resolved


_KERNELS = {
    "identification": _kernel_identification,
    "parity_guess": _kernel_parity_guess,
    "cheat_detection": _kernel_cheat_detection,
    "bc_honest": _kernel_bc,
    "ct_honest": _kernel_ct,
    "ct_sendback": partial(_kernel_ct, scenario="ct_sendback"),
    "tailed_completion": partial(_kernel_bc, scenario="tailed_completion"),
}


def _run_cell(spec: ExperimentSpec, cell_index: int) -> SummaryCell:
    params = spec.cells()[cell_index]
    kernel = _KERNELS[spec.scenario]
    successes, reference, resolved = kernel(params, spec.trials, spec.master_seed, cell_index)
    ci_lo, ci_hi = wilson_interval(successes, spec.trials)
    z = _z_score(successes, spec.trials, reference)
    return SummaryCell(
        scenario=spec.scenario,
        params=tuple(sorted(resolved.items())),
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
    indices = range(len(spec.cells()))
    if jobs <= 1:
        return [_run_cell(spec, i) for i in indices]
    # a pool forks all its workers at once, so never ask for more than cells
    with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
        return list(pool.map(_run_cell, [spec] * len(indices), indices))


def cells_to_csv(cells: list[SummaryCell]) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA_HEADER + "\n")
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    for cell in cells:
        row = {name: "" for name in _CSV_COLUMNS}
        row.update(
            scenario=cell.scenario,
            trials=cell.trials,
            successes=cell.successes,
            estimate=repr(cell.estimate),
            ci_lo=repr(cell.ci_lo),
            ci_hi=repr(cell.ci_hi),
            reference=repr(cell.reference),
            z=repr(cell.z),
            mode=cell.mode,
        )
        row["pass"] = str(cell.passed).lower()
        for name, value in cell.params:
            if name in _CSV_COLUMNS:
                row[name] = repr(value) if isinstance(value, float) else str(value)
        writer.writerow(row)
    return buf.getvalue()


def cells_to_json(cells: list[SummaryCell]) -> str:
    payload = {
        "schema": 1,
        "cells": [
            {
                "scenario": c.scenario,
                "params": c.params_dict,
                "trials": c.trials,
                "successes": c.successes,
                "estimate": c.estimate,
                "ci_lo": c.ci_lo,
                "ci_hi": c.ci_hi,
                "reference": c.reference,
                "z": c.z if math.isfinite(c.z) else None,
                "mode": c.mode,
                "pass": c.passed,
            }
            for c in cells
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
