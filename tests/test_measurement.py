import math
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from relqprot.measurement import (
    composite_error,
    helstrom_error,
)
from relqprot.parity import _evidence_weights, pc_parity_optimal
from relqprot.protocol import (
    PERP,
    AbortReason,
    ProtocolConfig,
    _delay_pass_probability,
    _verify_announcement,
    simulate,
)
from relqprot.wavepacket import SILENT, StretchedState, Waveform, delayed_overlap


def make_state(bit=0, xi=None):
    return StretchedState.create(1.0, 8.0, bit=bit, tail_exponent=xi)


def code(reason):
    return list(AbortReason).index(reason) + 1


# ---------------------------------------------------------------- detection
# Detector outcomes as the protocol engine draws them: ``batch.ab`` holds the
# A->B fire coordinates, outcome codes, announced bits and block ids.


def test_full_access_always_fires_in_matching_channel():
    cfg = ProtocolConfig(2, 2)
    taus, outcomes, bits, _ = simulate(cfg, 400, np.random.default_rng(0)).ab
    assert np.all(taus <= cfg.full_access_horizon)
    assert np.array_equal(outcomes, bits)
    assert set(np.unique(bits).tolist()) == {0, 1}


def test_silent_below_support():
    # nothing fires before the front edge, so a horizon of -2 sees no outcome
    taus = simulate(ProtocolConfig(2, 2), 200, np.random.default_rng(1)).ab[0]
    assert taus.min() > -1.0


def test_fire_frequency_matches_window_mass_over_horizon_grid():
    # one batch of coordinates probed at several horizons: a channel has fired
    # by horizon T exactly when its coordinate lies at or before T
    rng = np.random.default_rng(2)
    state = make_state(1)
    n = 100_000
    taus = simulate(ProtocolConfig(1, 1), n, rng).ab[0].ravel()
    for horizon in (-2.0, 0.0, 2.0, 5.0, 7.5, 9.0):
        p = state.window_mass(-math.inf, horizon) if horizon > -1 else 0.0
        freq = np.count_nonzero(taus <= horizon) / n
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(freq - p) <= max(3 * sigma, 2e-4)


def test_honest_compact_states_never_land_in_perp():
    outcomes = simulate(ProtocolConfig(2, 2), 2000, np.random.default_rng(3)).ab[1]
    assert not np.any(outcomes == PERP)


@pytest.mark.parametrize("xi", [2.0, 4.0])
def test_tailed_fire_probability_in_covering_window(xi):
    # an outcome reveals the bit inside the two nominal hump windows, which
    # together cover the nominal extent, and is orthogonal anywhere else
    rng = np.random.default_rng(4)
    state = make_state(0, xi=xi)
    n = 40_000
    _, outcomes, bits, _ = simulate(ProtocolConfig(1, 1, tail_exponent=xi), n, rng).ab
    revealed = outcomes < PERP
    assert np.array_equal(outcomes[revealed], bits[revealed])
    hits = np.count_nonzero(revealed)
    p_model = state.window_mass(*state.front.nominal_interval) + state.window_mass(*state.rear.nominal_interval)
    sigma = math.sqrt(p_model * (1 - p_model) / n)
    assert abs(hits / n - p_model) <= 3 * sigma
    assert 1.0 - hits / n <= 1.5 * math.exp(-xi)


# ------------------------------------------------------------- verification


def test_verify_outcome_table():
    # one channel per row, its outcome class checked against its announced bit
    outcomes = np.array([[0], [1], [1], [PERP], [SILENT], [0]])
    announced = np.array([[0], [0], [1], [1], [1], [-1]])
    verdict, channel = _verify_announcement(
        ProtocolConfig(1, 1), outcomes, announced, np.zeros((6, 1), dtype=int)
    )
    assert verdict.tolist() == [
        0,
        code(AbortReason.WRONG_CHANNEL),
        0,
        code(AbortReason.PERP_OUTCOME),
        code(AbortReason.SILENT_AT_FULL_ACCESS),
        code(AbortReason.INCONSISTENT_DISCLOSURE),
    ]
    assert channel.tolist() == [-1, 0, -1, 0, 0, 0]


# ---------------------------------------------------------- cheat detection


def test_cheat_detection_rear_copy_splits_evenly():
    cfg = ProtocolConfig(1, 1)
    n = 20_000
    taus, outcomes, bits, _ = simulate(cfg, n, np.random.default_rng(5), delayed_blocks={0}).ab
    assert taus.min() > cfg.separation - cfg.width  # a rear-hump copy only
    assert np.all((outcomes == bits) | (outcomes == PERP))
    sigma = math.sqrt(0.25 / n)
    assert abs(np.count_nonzero(outcomes == bits) / n - 0.5) <= 3 * sigma


@pytest.mark.parametrize("k", [1, 3, 5])
def test_k_delayed_states_all_pass_with_exponential_rate(k):
    n = 20_000
    batch = simulate(ProtocolConfig(1, k), n, np.random.default_rng(6), delayed_blocks={0})
    all_pass = np.count_nonzero(batch.accepted)
    ref = 0.5**k
    sigma = math.sqrt(ref * (1 - ref) / n)
    assert abs(all_pass / n - ref) <= 3 * sigma


@pytest.mark.parametrize(
    "delayed",
    [
        StretchedState.create(1.0, 8.0, 0).rear,
        Waveform(0.5, 8.2),
        Waveform(2.0, 7.0),
    ],
)
def test_admissible_delayed_states_pass_at_most_half(delayed):
    # the engine's delayer sends the rear-hump copy, the best admissible state
    best = _delay_pass_probability(make_state(0))
    assert delayed_overlap(delayed, make_state(0)) <= best + 1e-9
    assert best <= 0.5 + 1e-9


# ----------------------------------------------------------- discrimination


def random_density(rng):
    a = rng.normal(size=(2, 2))
    m = a @ a.T
    return m / np.trace(m)


def brute_force_min_error(p0, p1, rho0, rho1):
    """Search all binary projective measurements on the internal plane."""

    def quad(rho, theta):
        c, s = np.cos(theta), np.sin(theta)
        return rho[0, 0] * c * c + (rho[0, 1] + rho[1, 0]) * c * s + rho[1, 1] * s * s

    def err(theta):  # guess 1 on the projector onto (cos theta, sin theta)
        return p0 * quad(rho0, theta) + p1 * (np.trace(rho1) - quad(rho1, theta))

    thetas = np.linspace(0.0, math.pi, 4001)
    values = err(thetas)
    i = int(np.argmin(values))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, 4000)]
    refined = minimize_scalar(err, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
    return min(float(refined.fun), float(values[i]), p0, p1)


def test_helstrom_orthogonal_states_are_free():
    res = helstrom_error(0.5, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert res == 0.0
    for mass in (0.1, 0.5, 1.0):
        # restricted access errs only in the silent branch, by a blind guess
        assert composite_error(mass, res, 0.5) == pytest.approx(0.5 * (1.0 - mass))


def test_helstrom_identical_states_force_guessing():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    res = helstrom_error(0.5, rho, rho)
    assert res == pytest.approx(0.5, abs=1e-12)
    # no mass of the window can beat the blind guess
    assert composite_error(0.8, res, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_takes_the_prior_once():
    # rho1 is the maximally mixed state, so no measurement beats guessing the
    # likelier hypothesis 1, which errs with p0
    rho0, rho1 = np.diag([1.0, 0.0]), np.diag([0.5, 0.5])
    res = helstrom_error(0.2, rho0, rho1)
    assert res == pytest.approx(0.2, abs=1e-12)
    assert res == pytest.approx(brute_force_min_error(0.2, 0.8, rho0, rho1), abs=1e-10)


def test_helstrom_canonical_diagonal_case():
    res = helstrom_error(0.5, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert res == pytest.approx(0.0, abs=1e-15)


def test_helstrom_matches_brute_force_projector_search():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        p0 = rng.uniform(0.2, 0.8)
        rho0, rho1 = random_density(rng), random_density(rng)
        mass = rng.uniform(0.2, 1.0)
        silent = min(p0, 1 - p0)
        res = helstrom_error(p0, rho0, rho1)
        total = composite_error(mass, res, silent)
        brute = brute_force_min_error(p0, 1 - p0, rho0, rho1)
        brute = composite_error(mass, brute, silent)
        worst = max(worst, abs(total - brute))
        assert res <= silent + 1e-12
    assert worst < 1e-10


def test_helstrom_error_vanishes_only_for_orthogonal_ensembles():
    # with even priors, zero error needs perfectly distinguishable states
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho0, rho1 = random_density(rng), random_density(rng)
        res = helstrom_error(0.5, rho0, rho1)
        overlap = float(np.trace(rho0 @ rho1))
        if overlap > 1e-6:
            assert res > 0.0
    ortho = helstrom_error(0.5, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert ortho == 0.0


def test_helstrom_keeps_the_phases_of_complex_states():
    plus, plus_i = np.full((2, 2), 0.5), np.array([[0.5, -0.5j], [0.5j, 0.5]])
    res = helstrom_error(0.5, plus, plus_i)
    assert res == pytest.approx(0.5 * (1.0 - math.sqrt(0.5)), abs=1e-15)
    # complex symmetric is not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        helstrom_error(0.5, np.array([[0.5, 0.5j], [0.5j, 0.5]]), plus)
    with pytest.raises(ValueError):
        helstrom_error(0.5, [["a", "b"], ["c", "d"]], plus)


@pytest.mark.parametrize("rho, error", [
    (np.diag([math.nan, 1.0]), "finite"),
    (np.diag([math.inf, 1.0]), "finite"),
    (np.array([[None, 0.0], [0.0, 1.0]], dtype=object), "finite"),  # None reads as NaN
    (np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=object), None),  # |+i><+i|
    (np.full((2, 2), Fraction(1, 2), dtype=object), None),  # |+><+|, read as real
], ids=["nan", "inf", "object-none", "object-complex", "object-fractions"])
def test_helstrom_reads_object_arrays_and_rejects_non_finite_entries(rho, error):
    if error is None:  # either state against |0><0| has overlap 1/2
        expected = 0.5 * (1.0 - math.sqrt(0.5))
        assert helstrom_error(0.5, rho, np.diag([1.0, 0.0])) == pytest.approx(expected, abs=1e-15)
    else:
        with pytest.raises(ValueError, match=error):
            helstrom_error(0.5, rho, np.diag([1.0, 0.0]))


def test_helstrom_rejects_non_hermitian():
    with pytest.raises(ValueError):
        helstrom_error(0.5, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_helstrom_larger_internal_space():
    p0 = 0.5
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    rho0 = a @ a.T / np.trace(a @ a.T)
    b = rng.normal(size=(3, 3))
    rho1 = b @ b.T / np.trace(b @ b.T)
    res = helstrom_error(p0, rho0, rho1)
    vals = np.linalg.eigvalsh((1 - p0) * rho1 - p0 * rho0)
    assert res == pytest.approx(p0 + vals[vals < 0].sum(), abs=1e-12)


def restricted_parity_states(n, k, p):
    """The joint law (w_even, w_odd) of the outcome strings on {0, 1, none}^(N k).

    The sender's l one-blocks weigh C(N, l) / 2^N, spread evenly by the secret
    permutation over the C(N k, l k) strings with l k ones, and each channel
    shows its bit with probability p and stays silent otherwise.  Both are
    diagonal in the one product basis, so the two parity states commute.
    """
    shown = {0: np.array([p, 0.0, 1.0 - p]), 1: np.array([0.0, p, 1.0 - p])}
    weights = np.zeros((2, 3 ** (n * k)))
    for string in product((0, 1), repeat=n * k):
        level, rest = divmod(sum(string), k)
        if rest == 0:
            law = reduce(np.kron, [shown[bit] for bit in string])
            weights[level % 2] += math.comb(n, level) / 2**n / math.comb(n * k, level * k) * law
    return weights


@pytest.mark.parametrize("p", [0.3, 0.5, 0.875])
def test_count_guesser_attains_the_helstrom_bound_of_the_restricted_states(p):
    # every measurement of the restricted state, not only the count guesser:
    # the Helstrom success equals the count law's optimum at any fire probability
    for n, k in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (1, 4)]:
        w_even, w_odd = restricted_parity_states(n, k, p)
        helstrom = 1.0 - helstrom_error(0.5, np.diag(2 * w_even), np.diag(2 * w_odd))
        nk = n * k
        counts = sum(
            p ** (a + b) * (1.0 - p) ** (nk - a - b) * max(_evidence_weights(n, k, a, b))
            for a in range(nk + 1)
            for b in range(nk + 1 - a)
        ) / 2**n
        assert helstrom == pytest.approx(counts, abs=1e-12), (n, k)
        if p == 0.5:
            assert helstrom == pytest.approx(pc_parity_optimal(n, k), abs=1e-12), (n, k)
        if (n, k, p) == (2, 2, 0.875):
            assert helstrom == pytest.approx(0.984497, abs=1e-6)


def test_composite_error_values():
    assert composite_error(0.5, 0.0, 0.5) == pytest.approx(0.25)
    assert composite_error(1.0, 0.0, 0.9) == 0.0
    assert composite_error(0.0, 0.3, 0.5) == 0.5
    with pytest.raises(ValueError):
        composite_error(1.5, 0.0, 0.0)


@pytest.mark.parametrize("p0", [-0.1, 1.1, math.nan, math.inf, -math.inf])
def test_helstrom_rejects_a_prior_outside_the_unit_interval(p0):
    # every comparison with NaN is false, so the range test rejects it as well
    with pytest.raises(ValueError, match="^p0 must be a probability"):
        helstrom_error(p0, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_helstrom_rejects_malformed_states():
    with pytest.raises(ValueError):
        helstrom_error(0.5, np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        helstrom_error(0.5, np.eye(2) / 2, np.eye(3) / 3)
    with pytest.raises(ValueError):
        composite_error(1.4, 0.0, 0.5)  # the accessible mass is a probability
