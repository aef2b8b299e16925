"""Discrimination bounds for partially accessible states.

Covers the minimum-error discriminator used to quantify what a receiver can
learn while only part of a state has arrived, and the error of a detector
that either fires inside the accessible window or stays silent.  Detector
outcomes themselves are drawn and verified by the protocol engine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "helstrom_error",
    "composite_error",
]

_HERMITIAN_TOL = 1e-12


def helstrom_error(p0: float, rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Minimum-error discrimination of two internal states at full access.

    The optimal binary measurement projects onto the negative eigenspace of
    Gamma = (1 - p0) * rho1 - p0 * rho0, for p0 the prior of rho0; the residual
    error is p0 plus the sum of the negative eigenvalues, so orthogonal states
    give zero error.  When only part of the state is accessible, the detector
    fires with the window mass and the silent branch is a blind guess:
    ``composite_error(mass, helstrom_error(...), min(p0, 1 - p0))``.  Complex
    matrices keep their phases, an object array among them when an entry is complex.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be a probability, got {p0!r}")
    rho0, rho1 = np.asarray(rho0), np.asarray(rho1)
    entries = [x for rho in (rho0, rho1) if rho.dtype == object for x in rho.flat]
    dtype = complex if any(map(np.iscomplexobj, [rho0, rho1, *entries])) else float
    rho0, rho1 = np.asarray(rho0, dtype=dtype), np.asarray(rho1, dtype=dtype)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho1.shape != rho0.shape:
        raise ValueError("density matrices must be square and of one size")
    if not (np.isfinite(rho0).all() and np.isfinite(rho1).all()):
        raise ValueError("density matrices must be finite")
    gamma = (1.0 - p0) * rho1 - p0 * rho0
    scale = max(1.0, float(np.abs(gamma).max(initial=0.0)))
    if float(np.abs(gamma - gamma.conj().T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
        raise ValueError("density matrices must be Hermitian")
    vals = np.linalg.eigvalsh(gamma)
    return max(p0 + float(vals[vals < 0.0].sum()), 0.0)


def composite_error(p_fire: float, pe_fired: float, pe_silent: float) -> float:
    """Total identification error mixing the fired and silent branches."""
    for name, value in (("p_fire", p_fire), ("pe_fired", pe_fired), ("pe_silent", pe_silent)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability")
    return pe_silent * (1.0 - p_fire) + pe_fired * p_fire

