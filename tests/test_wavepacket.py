import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from relqprot.wavepacket import (
    StretchedState,
    Waveform,
    _damped_erf,
    _gaussian_sigma,
    delayed_overlap,
)

INF = math.inf


def quad_mass(profile, lo, hi):
    """Independent quadrature of |f|^2, the oracle for all mass claims."""
    val, _ = integrate.quad(profile.density, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def _parts(state):
    if isinstance(state, Waveform):
        return [(1.0, state)]
    return [(1.0 / math.sqrt(2.0), state.front), (1.0 / math.sqrt(2.0), state.rear)]


def quad_overlap(delayed, honest):
    """Independent quadrature of the squared windowed amplitude overlap, the
    oracle for ``delayed_overlap``; breaks at the hump centres keep a narrow
    hump from falling between the quadrature nodes."""
    parts_d, parts_h = _parts(delayed), _parts(honest)

    def integrand(tau):
        gd = sum(c * np.sqrt(h.density(tau)) for c, h in parts_d)
        gh = sum(c * np.sqrt(h.density(tau)) for c, h in parts_h)
        return gd * gh

    total = 0.0
    for win_lo, win_hi in (honest.front.nominal_interval, honest.rear.nominal_interval):
        lo = max(win_lo, min(h.support[0] for _, h in parts_d))
        hi = min(win_hi, max(h.support[1] for _, h in parts_d))
        if hi > lo:
            points = [h.center for _, h in parts_d + parts_h if lo < h.center < hi] or None
            total += integrate.quad(
                integrand, lo, hi, points=points, epsabs=1e-13, epsrel=1e-13, limit=400
            )[0]
    return min(max(total * total, 0.0), 1.0)


@pytest.mark.parametrize("width", [0.3, 1.0, 2.5])
def test_compact_profile_normalized(width):
    w = Waveform(width)
    assert abs(quad_mass(w, -width, width) - 1.0) < 1e-12
    assert abs(w.mass(-INF, INF) - 1.0) < 1e-12


@pytest.mark.parametrize("xi", [1.0, 2.0, 6.0])
def test_tailed_profile_normalized_and_tail_mass(xi):
    w = Waveform(1.0, tail_exponent=xi)
    assert abs(quad_mass(w, -60 * w.sigma, 60 * w.sigma) - 1.0) < 1e-12
    outside = w.mass(-INF, -1.0) + w.mass(1.0, INF)
    assert abs(outside - math.exp(-xi)) < 1e-9


def test_compact_support_is_exact():
    w = Waveform(1.0, center=0.5)
    taus = np.array([-0.6, -0.5001, 1.5001, 3.0])
    assert np.all(w.density(taus) == 0.0)
    assert w.mass(1.5, 10.0) == 0.0


def test_mass_matches_quadrature_inside_support():
    w = Waveform(0.8, center=-0.2)
    for lo, hi in [(-1.0, -0.5), (-0.9, 0.55), (0.0, 0.3)]:
        assert abs(w.mass(lo, hi) - quad_mass(w, lo, hi)) < 1e-12


def test_window_mass_trivia():
    s = StretchedState.create(1.0, 8.0, bit=0)
    assert abs(s.window_mass(-INF, INF) - 1.0) < 1e-12
    assert abs(s.window_mass(-1.0, 1.0) - 0.5) < 1e-12
    assert s.window_mass(2.0, 6.0) == 0.0
    # front plus rear windows carry everything
    total = s.window_mass(-1.0, 1.0) + s.window_mass(7.0, 9.0)
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("xi", [2.0, 4.0])
def test_tailed_window_masses(xi):
    s = StretchedState.create(1.0, 8.0, bit=1, tail_exponent=xi)
    per_hump = s.window_mass(-1.0, 1.0)
    assert abs(per_hump - (0.5 - 0.5 * math.exp(-xi))) < 1e-9
    covering = s.window_mass(-1.0, 9.0)
    assert covering < 1.0
    assert 1.0 - covering <= math.exp(-xi)


def test_translate_shifted_front_mass():
    s = StretchedState.create(1.0, 8.0, bit=0)
    delta = 2.75
    moved = StretchedState(Waveform(1.0, delta), Waveform(1.0, 8.0 + delta), 0)
    expected = 0.5 * quad_mass(s.front, -1.0, 1.0)
    assert abs(moved.window_mass(-1 + delta, 1 + delta) - expected) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(-20, 20, allow_nan=False),
    lo=st.floats(-12, 10, allow_nan=False),
    span=st.floats(0.05, 15, allow_nan=False),
    xi=st.one_of(st.none(), st.floats(0.5, 8)),
)
def test_mass_is_translation_invariant(delta, lo, span, xi):
    s = StretchedState.create(1.0, 8.0, bit=0, tail_exponent=xi)
    moved = StretchedState(Waveform(1.0, delta, xi), Waveform(1.0, 8.0 + delta, xi), 0)
    before = s.window_mass(lo, lo + span)
    after = moved.window_mass(lo + delta, lo + span + delta)
    assert after == pytest.approx(before, abs=1e-12)


def test_ppf_inverts_cdf():
    # the edge draws include the smallest subnormal and the largest double below 1
    edges = np.array([0.0, 5e-324, 1e-300, 1 - 2.0**-53])
    for wf in (Waveform(1.3, center=0.7), Waveform(1.0, tail_exponent=3.0)):
        q = np.sort(np.concatenate([edges, np.linspace(1e-6, 1 - 1e-6, 2001)]))
        u = wf.ppf(q)
        lo, hi = wf.support
        assert np.all((lo <= u) & (u <= hi)) and np.all(np.diff(u) >= 0)
        assert np.max(np.abs(wf.cdf(u) - q)) < 1e-12


@pytest.mark.parametrize(
    "wf",
    [Waveform(1.0), Waveform(0.4, center=-2.5), Waveform(1.0, tail_exponent=2.0)],
    ids=["bump", "narrow-shifted-bump", "gaussian"],
)
def test_sampler_matches_cdf(wf):
    x = wf._place(wf._draws(np.random.default_rng(2026), 1_000_000))
    # 1.36e-3 is the 5% critical value of the KS distance at 1e6 draws
    assert stats.kstest(x, wf.cdf).statistic < 1.36e-3
    lo, hi = wf.support
    assert lo <= x.min() and x.max() <= hi


def test_bump_sampler_moments():
    # t = sin(pi u / 2) has t^2 ~ Beta(1/2, 5/2): E t^2 = 1/6, E t^4 = 1/16
    n = 1_000_000
    wf = Waveform(1.0)
    s = np.sin(0.5 * np.pi * wf._place(wf._draws(np.random.default_rng(7), n))) ** 2
    for power, mean, second in [(1, 1 / 6, 1 / 16), (2, 1 / 16, 7 / 384)]:
        sigma = math.sqrt((second - mean * mean) / n)
        assert abs(np.mean(s**power) - mean) < 4 * sigma


def test_fire_time_sampler_holds_at_most_two_float_arrays():
    s = StretchedState.create(1.0, 8.0, bit=0)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        s._place_fires(s._fire_draws(rng, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6  # two 8 MB float arrays and the 1 MB hump choice


def test_sampled_fire_times_match_window_mass():
    rng = np.random.default_rng(1234)
    s = StretchedState.create(1.0, 8.0, bit=0)
    n = 100_000
    taus = s._place_fires(s._fire_draws(rng, n))
    for horizon in [-0.5, 1.0, 4.0, 7.5, 9.0]:
        p = s.window_mass(-INF, horizon) if horizon > -1 else 0.0
        freq = np.count_nonzero(taus <= horizon) / n
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(freq - p) <= max(3 * sigma, 2e-4)


def test_fires_with_the_least_positive_u_are_placed_inside_their_windows():
    # U = 2^-53 is the least positive Generator.random draw; V = 0 and 1/2 give
    # the top and the bottom of each hump, one of them the side that faces the gap
    for width in np.geomspace(1e-15, 1e3, 300).tolist():
        for sep in (8.0, 2.5 * width, 3.0 * width + 1.0, 2.0000001 * width):
            if sep > 2.0 * width:
                s = StretchedState.create(width, sep, bit=0)
                draws = (np.array([False, False, True, True]), (np.full(4, 2.0**-53), np.array([0.0, 0.5, 0.0, 0.5])))
                assert s._inside(draws)
                taus = s._place_fires(draws)
                assert taus[:2].max() <= s.front.nominal_interval[1], (width, sep)
                assert taus[2:].min() >= s.rear.nominal_interval[0], (width, sep)


@pytest.mark.parametrize("wf, draws", [
    # U = 1 gives sqrt(1 - sqrt(U)) = 0 and cos(3 pi / 2) rounds below 0, so t = -0.0
    (Waveform(1.0), (np.ones(1), np.full(1, 0.75))),
    (Waveform(1.0, tail_exponent=1.0), (np.full(1, -0.0),)),
], ids=["bump", "gaussian"])
def test_placement_writes_no_negative_zero(wf, draws):
    assert math.cos(1.5 * math.pi) < 0.0
    (tau,) = wf._place(draws).tolist()
    assert tau == 0.0 and math.copysign(1.0, tau) == 1.0


def test_delayed_overlap_rear_copy_is_half():
    s = StretchedState.create(1.0, 8.0, bit=0)
    assert delayed_overlap(s.rear, s) == pytest.approx(0.5, abs=1e-15)


def test_delayed_overlap_outside_supports_is_zero():
    s = StretchedState.create(1.0, 8.0, bit=0)
    far = Waveform(1.0, center=20.0)
    assert delayed_overlap(far, s) == pytest.approx(0.0, abs=1e-12)


def test_delayed_overlap_rejects_front_cover():
    s = StretchedState.create(1.0, 8.0, bit=0)
    with pytest.raises(ValueError):
        delayed_overlap(Waveform(1.0, center=0.5), s)
    with pytest.raises(ValueError):
        delayed_overlap(s, s)


@pytest.mark.parametrize(
    "delayed",
    [
        Waveform(1.0, center=8.0),
        Waveform(0.4, center=8.0),
        Waveform(0.7, center=7.9),
        Waveform(1.0, center=9.5),
        Waveform(2.0, center=5.0),
        StretchedState(Waveform(0.5, 4.5), Waveform(0.5, 8.5), 0),
    ],
)
def test_delayed_overlap_never_beats_half(delayed):
    s = StretchedState.create(1.0, 8.0, bit=0)
    assert delayed_overlap(delayed, s) <= 0.5 + 1e-9


@pytest.mark.parametrize("xi", [2.0, 5.0])
def test_tailed_delayed_overlap_bound(xi):
    s = StretchedState.create(1.0, 8.0, bit=0, tail_exponent=xi)
    val = delayed_overlap(s.rear, s)
    assert val <= 0.5 + math.exp(-xi)


def _agreement_cases():
    cases = []
    for xi in (None, 0.5, 4.0, 30.0, 744.0):
        for width, sep in ((1.0, 8.0), (1.0, 2.5), (1.5, 4.0)):
            if xi is None and sep <= 2.0 * width:
                continue
            honest = StretchedState.create(width, sep, 0, xi)
            cases.append(pytest.param(honest.rear, honest, id=f"rear-copy-xi{xi}-w{width}-S{sep}"))
    bump, gauss = StretchedState.create(1.0, 8.0, 0), StretchedState.create(1.0, 8.0, 0, 2.0)
    for name, delayed in [
        ("bump-partial-right", Waveform(1.0, center=9.5)),
        ("bump-partial-left", Waveform(2.0, center=6.0)),
        ("bump-narrow", Waveform(0.4, center=7.7)),
        ("bump-outside", Waveform(1.0, center=20.0)),
        ("gauss-narrow-xi744", Waveform(0.1, center=8.3, tail_exponent=744.0)),
        ("gauss-wide-xi0.5", Waveform(3.0, center=9.0, tail_exponent=0.5)),
        ("two-hump-bump", StretchedState(Waveform(0.5, 4.5), Waveform(0.5, 8.5), 0)),
        ("two-hump-gauss", StretchedState(Waveform(0.5, 4.5, 3.0), Waveform(0.5, 8.5, 3.0), 0)),
    ]:
        cases.append(pytest.param(delayed, bump, id=f"{name}-vs-bump"))
        cases.append(pytest.param(delayed, gauss, id=f"{name}-vs-gauss"))
    # plain adaptive quadrature over the window (3.5, 8.5) misses this spike
    spike = Waveform(0.1, center=5.0, tail_exponent=370.0)
    cases.append(pytest.param(spike, StretchedState.create(2.5, 6.0, 0), id="spike-in-wide-bump"))
    # the naive complex erf gives inf * 0 = nan for this wide Gaussian
    wide = StretchedState.create(2.97, 13.88, 0, 0.3)
    cases.append(pytest.param(Waveform(0.155, center=11.33), wide, id="narrow-bump-vs-wide-gauss"))
    return cases


@pytest.mark.parametrize("delayed, honest", _agreement_cases())
def test_delayed_overlap_matches_quadrature(delayed, honest):
    value = delayed_overlap(delayed, honest)
    assert math.isfinite(value)
    assert abs(value - quad_overlap(delayed, honest)) <= 1e-12


@pytest.mark.parametrize("xi", [0.5, 2.0, 4.0, 8.0, 30.0, 700.0, 744.0])
@pytest.mark.parametrize("width, sep", [(1.0, 8.0), (1.0, 2.5), (1.5, 4.0)])
def test_gaussian_rear_copy_closed_form(xi, width, sep):
    # the geometric mean of two shifted normal densities is the midpoint
    # density times exp(-S^2 / (8 sigma^2)), so the rear copy passes with
    # 1/2 [M_rear(W) + exp(-S^2 / (8 sigma^2)) M_mid(W)]^2
    s = StretchedState.create(width, sep, 0, xi)
    mid = Waveform(width, 0.5 * sep, xi)
    windows = (s.front.nominal_interval, s.rear.nominal_interval)
    m_rear = sum(s.rear.mass(lo, hi) for lo, hi in windows)
    m_mid = sum(mid.mass(lo, hi) for lo, hi in windows)
    expected = 0.5 * (m_rear + math.exp(-(sep**2) / (8.0 * s.front.sigma**2)) * m_mid) ** 2
    assert delayed_overlap(s.rear, s) == pytest.approx(expected, abs=1e-15)


def test_gaussian_scale_is_the_erfcinv_one():
    # width / -inv_cdf(e^-xi / 2) from the stdlib against width / (sqrt(2) erfcinv(e^-xi))
    for xi in np.geomspace(1e-3, 744.0, 400).tolist() + [744.0]:
        for width in (1.0, 0.3):
            expected = width / (math.sqrt(2.0) * float(special.erfcinv(math.exp(-xi))))
            assert _gaussian_sigma(width, xi) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_real_damped_erf_is_the_faddeeva_one():
    # at kappa = 0 the Faddeeva form is 1 - e^(-u^2) w(i |u|) = erf(|u|), odd in u
    for u in np.linspace(-30.0, 30.0, 2401).tolist():
        v = abs(u)
        g = 1.0 - math.exp(-v * v) * special.wofz(complex(0.0, v)).real
        assert abs(_damped_erf(u, 0.0) - math.copysign(g, u)) <= 1e-15


@pytest.mark.parametrize("make, name", [
    (lambda: Waveform(math.inf), "width"),
    (lambda: Waveform(math.nan), "width"),
    (lambda: Waveform(1.0, center=math.nan), "center"),
    (lambda: Waveform(1.0, center=-math.inf, tail_exponent=1.0), "center"),
    (lambda: StretchedState.create(1.0, math.inf, 0), "center"),
])
def test_non_finite_geometry_is_rejected_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make()


def test_validation_errors():
    with pytest.raises(ValueError):
        Waveform(-1.0)
    with pytest.raises(ValueError):
        Waveform(1.0, tail_exponent=0.0)
    with pytest.raises(ValueError, match="below 1"):
        Waveform(1.0, tail_exponent=1e-300)  # exp(-xi) rounds to 1
    for xi in (744.04, 744.5, 800.0):  # exp(-xi) / 2 rounds to 0, so the Gaussian scale is 0
        with pytest.raises(ValueError, match="below 1"):
            Waveform(1.0, tail_exponent=xi)
    near = StretchedState.create(1.0, 8.0, bit=0, tail_exponent=744.0)  # still accepted
    assert near.front.sigma == pytest.approx(0.026, abs=5e-4)
    assert delayed_overlap(near.rear, near) == pytest.approx(0.5, abs=1e-15)
    for lo, hi in [(2.0, 2.0), (math.nan, 2.0), (-1.0, math.nan)]:
        with pytest.raises(ValueError, match="hi > lo"):
            StretchedState.create(1.0, 8.0, bit=0).window_mass(lo, hi)
    with pytest.raises(ValueError, match="one profile family"):
        StretchedState(Waveform(1.0), Waveform(2.0, center=8.0), 0)
    with pytest.raises(ValueError, match="must trail"):
        StretchedState(Waveform(1.0, center=8.0), Waveform(1.0), 0)
    with pytest.raises(TypeError, match="expected Waveform or StretchedState"):
        delayed_overlap((7.0, 9.0), StretchedState.create(1.0, 8.0, bit=0))
    with pytest.raises(ValueError):
        StretchedState.create(1.0, 1.5, bit=0)  # overlapping compact humps
    with pytest.raises(ValueError):
        StretchedState.create(1.0, 8.0, bit=2)
    with pytest.raises(ValueError):
        Waveform(1.0).sigma
    with pytest.raises(ValueError):
        Waveform(1.0).mass(2.0, 1.0)
