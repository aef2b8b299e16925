"""Discrimination bounds for partially accessible states.

Covers the minimum-error discriminator used to quantify what a receiver can
learn while only part of a state has arrived, and the error of a detector
that either fires inside the accessible window or stays silent.  Detector
outcomes themselves are drawn and verified by the protocol engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PriorPair",
    "GammaOperator",
    "HelstromResult",
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
        if self.p0 < 0 or self.p1 < 0:
            raise ValueError("priors must be non-negative")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")

    @classmethod
    def even(cls) -> "PriorPair":
        return cls(0.5, 0.5)


@dataclass(frozen=True)
class GammaOperator:
    """Weighted difference of the two internal density matrices.

    ``matrix`` is p1 * rho1 - p0 * rho0 on the internal space; ``spatial_mass``
    is the scalar probability of an outcome landing in the accessible window,
    which multiplies the whole operator for restricted-access discrimination.
    """

    matrix: np.ndarray
    spatial_mass: float = 1.0

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gamma operator must be a square matrix")
        object.__setattr__(self, "matrix", m)
        if not 0.0 <= self.spatial_mass <= 1.0:
            raise ValueError("spatial mass must be a probability")

    @classmethod
    def from_ensemble(
        cls,
        prior: PriorPair,
        rho0: np.ndarray,
        rho1: np.ndarray,
        spatial_mass: float = 1.0,
    ) -> "GammaOperator":
        m = prior.p1 * np.asarray(rho1, dtype=float) - prior.p0 * np.asarray(rho0, dtype=float)
        return cls(m, spatial_mass)


class HelstromResult(NamedTuple):
    error: float
    projector_0: np.ndarray
    projector_1: np.ndarray


def _check_hermitian(m: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
        raise ValueError("gamma operator must be Hermitian")


def helstrom_error(
    prior: PriorPair,
    gamma: GammaOperator | np.ndarray,
    accessible_mass: float | None = None,
) -> HelstromResult:
    """Minimum-error discrimination restricted to the accessible window.

    The optimal binary measurement projects onto the negative eigenspace of
    the weighted density difference; the residual error is the accessible
    mass times (p0 + sum of negative eigenvalues).  Orthogonal internal
    states therefore give zero error whenever an outcome occurs at all.
    """
    if isinstance(gamma, GammaOperator):
        matrix = gamma.matrix
        mass = gamma.spatial_mass if accessible_mass is None else accessible_mass
    else:
        matrix = np.array(gamma, dtype=float)
        mass = 1.0 if accessible_mass is None else accessible_mass
    if not 0.0 <= mass <= 1.0:
        raise ValueError("accessible mass must be a probability")
    _check_hermitian(matrix)

    vals, vecs = np.linalg.eigh(matrix)

    neg = vals < 0.0
    error = mass * (prior.p0 + float(vals[neg].sum()))
    basis = vecs[:, neg]
    proj0 = basis @ basis.T
    proj1 = np.eye(matrix.shape[0]) - proj0
    return HelstromResult(max(error, 0.0), proj0, proj1)


def composite_error(p_fire: float, pe_fired: float, pe_silent: float) -> float:
    """Total identification error mixing the fired and silent branches."""
    for name, value in (("p_fire", p_fire), ("pe_fired", pe_fired), ("pe_silent", pe_silent)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability")
    return pe_silent * (1.0 - p_fire) + pe_fired * p_fire

