"""Discrimination bounds for partially accessible states.

Covers the minimum-error discriminator used to quantify what a receiver can
learn while only part of a state has arrived, and the error of a detector
that either fires inside the accessible window or stays silent.  Detector
outcomes themselves are drawn and verified by the protocol engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PriorPair",
    "helstrom_error",
    "composite_error",
]

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities with which the two hypotheses are prepared."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        for name, value in (("p0", self.p0), ("p1", self.p1)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")

    @classmethod
    def even(cls) -> "PriorPair":
        return cls(0.5, 0.5)


def helstrom_error(prior: PriorPair, rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Minimum-error discrimination of two internal states at full access.

    The optimal binary measurement projects onto the negative eigenspace of
    Gamma = p1 * rho1 - p0 * rho0; the residual error is p0 plus the sum of
    the negative eigenvalues, so orthogonal states give zero error.  When
    only part of the state is accessible, the detector fires with the
    window mass and the silent branch is a blind guess:
    ``composite_error(mass, helstrom_error(...), min(p0, p1))``.  Complex
    matrices keep their phases.
    """
    dtype = complex if np.iscomplexobj(rho0) or np.iscomplexobj(rho1) else float
    rho0, rho1 = np.asarray(rho0, dtype=dtype), np.asarray(rho1, dtype=dtype)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho1.shape != rho0.shape:
        raise ValueError("density matrices must be square and of one size")
    gamma = prior.p1 * rho1 - prior.p0 * rho0
    scale = max(1.0, float(np.abs(gamma).max(initial=0.0)))
    if float(np.abs(gamma - gamma.conj().T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
        raise ValueError("density matrices must be Hermitian")
    vals = np.linalg.eigvalsh(gamma)
    return max(prior.p0 + float(vals[vals < 0.0].sum()), 0.0)


def composite_error(p_fire: float, pe_fired: float, pe_silent: float) -> float:
    """Total identification error mixing the fired and silent branches."""
    for name, value in (("p_fire", p_fire), ("pe_fired", pe_fired), ("pe_silent", pe_silent)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability")
    return pe_silent * (1.0 - p_fire) + pe_fired * p_fire

