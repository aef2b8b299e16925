"""Detector outcomes and discrimination bounds for partially accessible states.

Covers the waiting-mode detector that fires at a random light-cone coordinate,
the three-outcome verification measurement (two orthogonal internal channels
plus the orthogonal complement of the agreed profile), and the minimum-error
discriminator used to quantify what a receiver can learn while only part of a
state has arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .wavepacket import StretchedState, Waveform, Window, delayed_overlap

__all__ = [
    "Channel",
    "Consistency",
    "DetectionRecord",
    "PriorPair",
    "GammaOperator",
    "HelstromResult",
    "sample_detection",
    "verify_outcome",
    "sample_cheat_detection",
    "helstrom_error",
    "composite_error",
]

_HERMITIAN_TOL = 1e-12


class Channel(Enum):
    """Possible detector outcomes for a single quantum channel."""

    CH0 = "ch0"
    CH1 = "ch1"
    PERP = "perp"
    SILENT = "silent"

    @classmethod
    def for_bit(cls, bit: int) -> "Channel":
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        return cls.CH0 if bit == 0 else cls.CH1

    @property
    def bit(self) -> int | None:
        """Internal bit revealed by the outcome, if any."""
        if self is Channel.CH0:
            return 0
        if self is Channel.CH1:
            return 1
        return None


class Consistency(Enum):
    CONSISTENT = "consistent"
    DISCREPANT = "discrepant"


@dataclass(frozen=True)
class DetectionRecord:
    """One detector outcome: a channel plus the firing coordinate.

    Silent records carry no firing coordinate by construction.
    """

    channel: Channel
    fire_time: float | None = None

    def __post_init__(self) -> None:
        if self.channel is Channel.SILENT and self.fire_time is not None:
            raise ValueError("silent records carry no fire time")
        if self.channel is not Channel.SILENT and self.fire_time is None:
            raise ValueError("fired records need a fire time")

    @property
    def fired(self) -> bool:
        return self.channel is not Channel.SILENT


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


def sample_detection(
    state: StretchedState,
    horizon: float,
    rng,
    windows: Sequence[Window] | None = None,
) -> DetectionRecord:
    """Draw one detector record for a state watched up to ``horizon``.

    The firing coordinate follows the two-hump density.  A coordinate beyond
    the horizon has not been seen yet (silent record); one inside the horizon
    but outside the admissible ``windows`` lands in the orthogonal complement
    of the agreed profile.  With no windows given, every fired outcome reveals
    the internal bit, which is exact for compact honest states.
    """
    tau = float(state.sample_fire_time(rng))
    if tau > horizon:
        return DetectionRecord(Channel.SILENT)
    if windows is not None and not any(w.contains(tau) for w in windows):
        return DetectionRecord(Channel.PERP, tau)
    return DetectionRecord(Channel.for_bit(state.bit), tau)


def verify_outcome(announced_bit: int, record: DetectionRecord) -> Consistency:
    """Compare a fired record against the classically announced bit."""
    if announced_bit not in (0, 1):
        raise ValueError("announced bit must be 0 or 1")
    if record.channel is Channel.SILENT:
        raise ValueError("silent records have no outcome to verify")
    if record.channel is Channel.for_bit(announced_bit):
        return Consistency.CONSISTENT
    return Consistency.DISCREPANT


def sample_cheat_detection(
    delayed,
    honest: StretchedState,
    rng,
    announced_bit: int | None = None,
    overlap: float | None = None,
) -> DetectionRecord:
    """Draw the verification outcome produced by a delayed replacement state.

    The record lands in the announced honest channel with the squared overlap
    probability and in the orthogonal complement otherwise, the unique
    completion of the three-outcome measurement for a state that misses the
    front hump.  Passing a precomputed ``overlap`` skips the quadrature.
    """
    p = delayed_overlap(delayed, honest) if overlap is None else overlap
    if not 0.0 <= p <= 1.0:
        raise ValueError("overlap must be a probability")
    bit = honest.bit if announced_bit is None else announced_bit
    if isinstance(delayed, Waveform):
        tau = float(delayed.sample(rng))
    else:
        tau = float(delayed.sample_fire_time(rng))
    if rng.random() < p:
        return DetectionRecord(Channel.for_bit(bit), tau)
    return DetectionRecord(Channel.PERP, tau)
