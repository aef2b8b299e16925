"""Light-cone amplitude profiles and two-hump stretched states.

All geometry lives on the retarded coordinate tau = t - x with c = 1, so a
freely propagating packet is a fixed function of tau and a measuring party
simply sees a growing window of it.  Two unit-mass profile families are
provided: a raised-cosine bump vanishing identically outside
(center - width, center + width), and a Gaussian whose squared-amplitude
mass outside that nominal interval equals exp(-tail_exponent).  Only window
masses and amplitude overlaps of these profiles enter the protocol
statistics, which is why the family choice is free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np
# scipy.special, about half of a cold start, is imported only where it is called

__all__ = [
    "Waveform",
    "StretchedState",
    "delayed_overlap",
]

# Outcome codes: 0 and 1 are the internal bit an outcome revealed, PERP the
# orthogonal complement, SILENT no fire by full access.
PERP, SILENT = 2, 3

def _bump_cdf_std(u):
    """Cumulative mass of the standardized raised-cosine bump on (-1, 1)."""
    v = 0.5 * np.pi * np.clip(u, -1.0, 1.0)
    return (8.0 / (3.0 * np.pi)) * (
        3.0 * v / 8.0
        + np.sin(2.0 * v) / 4.0
        + np.sin(4.0 * v) / 32.0
        + 3.0 * np.pi / 16.0
    )


@lru_cache(maxsize=None)
def _gaussian_sigma(width: float, tail_exponent: float) -> float:
    return width / -NormalDist().inv_cdf(p) if (p := 0.5 * math.exp(-tail_exponent)) else 0.0


@dataclass(frozen=True)
class Waveform:
    """Unit-mass amplitude profile on the light cone.

    ``tail_exponent is None`` selects the compact raised-cosine bump whose
    support is exactly (center - width, center + width).  Otherwise the
    profile is a Gaussian scaled so that the mass outside that same nominal
    interval equals ``exp(-tail_exponent)``; the interval then acts as the
    agreed localization window rather than a hard support.
    """

    width: float
    center: float = 0.0
    tail_exponent: float | None = None

    def __post_init__(self) -> None:
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        # checked in this order: a tiny xi rounds exp(-xi) to 1, which the
        # scale divides by; from about 744.03 up exp(-xi) / 2 rounds to 0, and so the scale
        xi = self.tail_exponent
        if xi is not None and not (xi > 0 and math.exp(-xi) < 1.0 and self.sigma > 0):
            raise ValueError(
                "tail_exponent must be positive, with exp(-tail_exponent) below 1"
                " and a positive Gaussian scale (about 5.6e-17 < tail_exponent < 744.03)"
            )

    @property
    def is_compact(self) -> bool:
        return self.tail_exponent is None

    @property
    def sigma(self) -> float:
        """Gaussian scale realizing the prescribed nominal tail mass, width / (sqrt(2) erfcinv(e^-xi))."""
        if self.tail_exponent is None:
            raise ValueError("compact profiles have no Gaussian scale")
        return _gaussian_sigma(self.width, self.tail_exponent)

    @property
    def support(self) -> tuple[float, float]:
        if self.is_compact:
            return (self.center - self.width, self.center + self.width)
        return (-math.inf, math.inf)

    @property
    def nominal_interval(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    def density(self, tau):
        """Squared amplitude, a probability density in tau."""
        tau = np.asarray(tau, dtype=float)
        if self.is_compact:
            u = (tau - self.center) / self.width
            out = (4.0 / (3.0 * self.width)) * np.cos(0.5 * np.pi * np.clip(u, -1, 1)) ** 4
            return np.where(np.abs(u) < 1.0, out, 0.0)
        s = self.sigma
        z = (tau - self.center) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    def cdf(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.is_compact:
            return _bump_cdf_std((tau - self.center) / self.width)
        from scipy.special import ndtr
        return ndtr((tau - self.center) / self.sigma)

    def mass(self, lo: float, hi: float) -> float:
        """Probability mass carried between light-cone coordinates lo < hi."""
        if not hi > lo:
            raise ValueError("mass window must satisfy hi > lo")
        return float(self.cdf(hi) - self.cdf(lo))

    def ppf(self, q):
        """Inverse of the cumulative mass, exact for both families."""
        from scipy.special import betaincinv, ndtri
        # a uniform draw can be exactly 0, which ndtri maps to -inf and
        # betaincinv to nan
        q = np.maximum(q, 1e-300)
        if self.is_compact:
            # with t = sin(pi u / 2), (1 + t) / 2 ~ Beta(5/2, 5/2)
            t = 2.0 * betaincinv(2.5, 2.5, q) - 1.0
            return self.center + self.width * (2.0 / np.pi) * np.arcsin(t)
        return self.center + self.sigma * ndtri(q)

    def _draws(self, rng, size):
        """The generator calls of ``size`` coordinates: U then V for the bump, normals for the Gaussian."""
        return (rng.random(size), rng.random(size)) if self.is_compact else (rng.standard_normal(size),)

    def _place(self, draws):
        """Coordinates from ``draws``, written over the first of them.  A
        compact draw is t = sin(pi u / 2) ~ sqrt(1 - sqrt(U)) cos(2 pi V),
        Ulrich's symmetric Beta(5/2, 5/2), placed monotonically in t."""
        if not self.is_compact:
            return np.add(np.multiply(draws[0], self.sigma, out=draws[0]), self.center, out=draws[0])
        t, v = draws
        np.sqrt(np.subtract(1.0, np.sqrt(t, out=t), out=t), out=t)
        v *= 2.0 * np.pi
        t *= np.cos(v, out=v)
        np.arcsin(t, out=t)
        t *= self.width * (2.0 / np.pi)
        t += self.center
        return t


@dataclass(frozen=True)
class StretchedState:
    """Two separated copies of one profile sharing a single internal bit.

    The equal-weight combination puts mass 1/2 in each hump, so a window
    covering only the front hump yields an outcome with probability 1/2 while
    the internal bit stays perfectly readable whenever an outcome occurs.
    """

    front: Waveform
    rear: Waveform
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError("internal bit must be 0 or 1")
        if self.front.width != self.rear.width or self.front.tail_exponent != self.rear.tail_exponent:
            raise ValueError("both humps must share one profile family")
        if not self.separation > 0:
            raise ValueError("rear hump must trail the front hump")
        if self.front.is_compact and not self.separation > 2.0 * self.front.width:
            raise ValueError("compact humps require separation > 2 * width")

    @classmethod
    def create(
        cls, width: float, separation: float, bit: int, tail_exponent: float | None = None
    ) -> "StretchedState":
        return cls(Waveform(width, 0.0, tail_exponent), Waveform(width, separation, tail_exponent), bit)

    @property
    def separation(self) -> float:
        return self.rear.center - self.front.center

    def window_mass(self, lo: float, hi: float) -> float:
        """Probability that a detector confined to the window (lo, hi) obtains an outcome;
        either edge may be infinite."""
        return 0.5 * (self.front.mass(lo, hi) + self.rear.mass(lo, hi))

    def _fire_draws(self, rng, size):
        """The generator calls of ``size`` fire times: the hump coins, then the profile's draws."""
        return rng.random(size) < 0.5, self.front._draws(rng, size)

    def _place_fires(self, draws):
        """Coordinates from ``_fire_draws``, written over them."""
        taus = self.front._place(draws[1])
        return np.add(taus, self.separation, out=taus, where=draws[0])

    def _inside(self, draws):
        """Whether every fire of ``_fire_draws`` is compact with U > 0, hence inside its hump window:
        U >= 2^-53 gives |t| < 1 - 5.2e-9, and as each rounded step of the placement is monotone,
        a front fire is placed at most at the front's top and a rear one at least at the rear's bottom."""
        return self.front.is_compact and draws[1][0].min(initial=1.0) > 0.0

    def _fired_by(self, draws, horizon: float):
        """Whether each fire of ``_fire_draws`` lies at or before ``horizon``, written over the
        hump coins: the coin alone decides for fires ``_inside`` with the horizon in the hump gap."""
        if self.front.nominal_interval[1] <= horizon < self.rear.nominal_interval[0] and self._inside(draws):
            return np.logical_not(draws[0], out=draws[0])
        return np.less_equal(self._place_fires(draws), horizon, out=draws[0])

    def _classes(self, taus, bits):
        """Outcome codes of fires at ``taus`` carrying ``bits``: the bit inside
        a hump window, SILENT past the rear one (full access), PERP otherwise."""
        (f_lo, f_hi), (r_lo, r_hi) = self.front.nominal_interval, self.rear.nominal_interval
        missed = np.where(taus > r_hi, SILENT, PERP)
        return np.where((f_lo < taus) & (taus < f_hi) | (r_lo < taus) & (taus < r_hi), bits, missed)

    def _honest_pass(self) -> float:
        """Chance that an honest fire takes its bit by ``_classes``, in either hump window: 1 - e^-xi
        in its own, plus, by mirror symmetry, the front hump's mass in (max(W, S - W), S + W)."""
        if self.front.is_compact:
            return 1.0
        w, s, cdf = self.front.width, self.separation, NormalDist(0.0, self.front.sigma).cdf
        return (1.0 - math.exp(-self.front.tail_exponent)) + (cdf(s + w) - cdf(max(w, s - w)))

    def _outcomes(self, rng, bits, shift: float = 0.0):
        """A call, made once, that gives the fire coordinates moved by ``shift``, and the outcome
        codes of channels carrying ``bits``.  Unshifted fires ``_inside`` their windows take their bits,
        and the call places the draws.  Every other fire is placed, moved and classed now."""
        draws = self._fire_draws(rng, bits.shape)
        if not shift and self._inside(draws):
            return lambda: self._place_fires(draws), bits.copy()
        taus = self._place_fires(draws) + shift
        return lambda: taus, self._classes(taus, bits)

    def _rear_copies(self, rng, bits, p_pass: float):
        """Coordinates and outcome codes of delayed rear-hump copies carrying ``bits``: a
        passing copy (pass coins at ``p_pass``) fires in the rear window and keeps its bit,
        a failing one fires anywhere in the rear hump and carries none.  The compact window
        is the whole hump, so a compact copy is the hump's own draw, then its coin."""
        if (rear := self.rear).is_compact:
            taus, passed = rear._place(rear._draws(rng, bits.shape)), rng.random(bits.shape) < p_pass
        else:
            q, passed = rng.random(bits.shape), rng.random(bits.shape) < p_pass
            lo, hi = rear.cdf(rear.nominal_interval)
            taus = rear.ppf(np.where(passed, lo + q * (hi - lo), q))
        return taus, np.where(passed, bits, self._classes(taus, PERP))


def _amplitude_parts(state) -> list[tuple[float, Waveform]]:
    if isinstance(state, Waveform):
        return [(1.0, state)]
    if isinstance(state, StretchedState):
        w = 1.0 / math.sqrt(2.0)
        return [(w, state.front), (w, state.rear)]
    raise TypeError(f"expected Waveform or StretchedState, got {type(state)!r}")


def _amplitude_terms(state) -> list[tuple[float, float, float, float, float, float]]:
    """The amplitude of ``state`` as a sum of terms (c, k, q, m, lo, hi), each
    c exp(i k (x - m) - q (x - m)^2) on its hump's support (lo, hi)."""
    terms = []
    for weight, hump in _amplitude_parts(state):
        m, (lo, hi) = hump.center, hump.support
        if hump.is_compact:
            # sqrt(4/(3w)) (1 + cos(pi (x - m) / w)) / 2, the cosine split in two
            c, k = weight / math.sqrt(3.0 * hump.width), math.pi / hump.width
            terms += [(c, 0.0, 0.0, m, lo, hi), (c / 2, k, 0.0, m, lo, hi), (c / 2, -k, 0.0, m, lo, hi)]
        else:
            var = hump.sigma**2
            terms.append((weight * (2.0 * math.pi * var) ** -0.25, 0.0, 0.25 / var, m, lo, hi))
    return terms


def _damped_erf(u: float, kappa: float) -> complex:
    """exp(-kappa^2 / 4) erf(u - i kappa / 2): the real erf at kappa = 0 (two Gaussians),
    else through the Faddeeva function ``wofz``, finite where the complex erf overflows
    and the damping underflows (a wide Gaussian against a narrow bump)."""
    if not kappa:
        return math.erf(u)
    from scipy.special import wofz
    v = abs(u)
    g = math.exp(-0.25 * kappa**2) - cmath.exp(complex(-v * v, kappa * v)) * wofz(complex(0.5 * kappa, v))
    return g if u >= 0 else -g.conjugate()


def _term_overlap(t1, t2, lo: float, hi: float) -> float:
    """Integral over (lo, hi) of the real part of the product of two terms."""
    (c1, k1, q1, m1), (c2, k2, q2, m2) = t1, t2
    k, q = k1 + k2, q1 + q2
    if q == 0.0:
        # about the midpoint m the integral is a sinc, finite as k goes to 0
        m, x = 0.5 * (lo + hi), 0.5 * k * (hi - lo)
        sinc = math.sin(x) / x if x else 1.0
        return c1 * c2 * math.cos(k1 * (m - m1) + k2 * (m - m2)) * (hi - lo) * sinc
    # the Gaussian factors make one, centred at m with rate q
    m, s = (q1 * m1 + q2 * m2) / q, math.sqrt(q)
    scale = c1 * c2 * math.exp(-q1 * q2 / q * (m1 - m2) ** 2) * math.sqrt(math.pi) / (2.0 * s)
    rise = _damped_erf(s * (hi - m), k / s) - _damped_erf(s * (lo - m), k / s)
    return scale * (cmath.exp(1j * (k1 * (m - m1) + k2 * (m - m2))) * rise).real


def delayed_overlap(delayed, honest: StretchedState) -> float:
    """Probability that a late replacement state passes the honest projector.

    ``delayed`` is the pure state a sender injects after postponing the
    choice (a single hump or a full two-hump state); ``honest`` is the agreed
    reference.  The value is the squared amplitude overlap with the reference
    profile restricted to its nominal hump windows, summed in closed form
    term by term.  It cannot exceed 1/2 (up to the Gaussian tail allowance)
    because the reference keeps half its mass in the front hump that the
    delayed state is forbidden to cover.
    """
    front_lo, front_hi = honest.front.nominal_interval
    for _, hump in _amplitude_parts(delayed):
        lo, hi = hump.nominal_interval
        if lo < front_hi and front_lo < hi:
            raise ValueError("delayed state support covers the front hump")

    terms_d, terms_h = _amplitude_terms(delayed), _amplitude_terms(honest)
    total = 0.0
    for win_lo, win_hi in (honest.front.nominal_interval, honest.rear.nominal_interval):
        for *td, lo_d, hi_d in terms_d:
            for *th, lo_h, hi_h in terms_h:
                lo, hi = max(win_lo, lo_d, lo_h), min(win_hi, hi_d, hi_h)
                if hi > lo:
                    total += _term_overlap(td, th, lo, hi)
    return float(min(max(total * total, 0.0), 1.0))
