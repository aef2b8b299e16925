"""Acceptance suite: every headline rate at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them live).  Statistical checks use three binomial standard deviations around
the closed-form reference; deterministic claims are checked exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from relqprot.experiment import ExperimentSpec, run_experiment
from relqprot.measurement import PriorPair, helstrom_error
from relqprot.parity import (
    count_block_strings,
    count_block_strings_closed,
    exact_parity_guesser,
    pc_parity_block_bound,
    pc_parity_plain,
)
from relqprot.protocol import mirror_guess_acceptance


def _sigma(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def sweep(scenario, grid, trials, master_seed=2024):
    spec = ExperimentSpec.from_dict(
        {"scenario": scenario, "grid": grid, "trials": trials, "master_seed": master_seed}
    )
    return run_experiment(spec)


# ---------------------------------------------------------------------------


def test_criterion_1_single_state_identification():
    t0 = time.perf_counter()
    (cell,) = sweep("identification", {"tau_d": [5.0]}, 100_000)
    elapsed = time.perf_counter() - t0
    ok = abs(cell.z) <= 3.0 and elapsed < 5.0
    assert report(
        "criterion 1 (identification 3/4)",
        ok,
        f"estimate={cell.estimate:.5f} reference=0.75 z={cell.z:+.2f} time={elapsed:.2f}s",
    )


def test_criterion_2_plain_parity_guessing():
    t0 = time.perf_counter()
    cells = sweep("parity_guess", {"n_blocks": [1, 2, 3, 4, 5, 6], "block_len": [1]}, 100_000)
    elapsed = time.perf_counter() - t0
    all_ok = True
    for cell in cells:
        n = cell.params_dict["n_blocks"]
        ref = pc_parity_plain(n)
        assert cell.reference == ref
        ok = abs(cell.z) <= 3.0
        all_ok &= report(
            "criterion 2 (plain parity guess)",
            ok,
            f"N={n} estimate={cell.estimate:.5f} reference={ref:.5f} z={cell.z:+.2f}",
        )
    all_ok &= report("criterion 2 (runtime)", elapsed < 60.0, f"time={elapsed:.2f}s")
    assert all_ok


def test_criterion_3_block_string_counting():
    t0 = time.perf_counter()
    mismatches = []
    pairs = [(n, k) for n in range(1, 21) for k in range(1, 21) if n * k <= 20]
    for n, k in pairs:
        if count_block_strings_closed(n, k) != count_block_strings(n, k):
            mismatches.append((n, k))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    assert report(
        "criterion 3 (exact counting)",
        ok,
        f"{len(pairs)} pairs with N*k <= 20, mismatches={mismatches}, time={elapsed:.2f}s",
    )


def test_criterion_4_cheat_detection_rates():
    cells = sweep(
        "cheat_detection", {"n_blocks": [2], "block_len": list(range(1, 9))}, 100_000
    )
    all_ok = True
    for cell in cells:
        k = cell.params_dict["block_len"]
        ok = abs(cell.z) <= 3.0
        all_ok &= report(
            "criterion 4 (one delayed block)",
            ok,
            f"k={k} acceptance={cell.estimate:.5f} reference={2.0 ** -k:.5f} z={cell.z:+.2f}",
        )
    multi = [(3, 2, 2), (4, 3, 2), (6, 2, 3), (12, 1, 4)]
    for n, k, m in multi:
        (cell,) = sweep(
            "cheat_detection",
            {"n_blocks": [n], "block_len": [k], "delayed_blocks": [m]},
            100_000,
        )
        ok = abs(cell.z) <= 3.0
        all_ok &= report(
            "criterion 4 (m delayed blocks)",
            ok,
            f"N={n} k={k} m={m} acceptance={cell.estimate:.5f} "
            f"reference={2.0 ** -(m * k):.5f} z={cell.z:+.2f}",
        )
    assert all_ok


def test_criterion_5_honest_completion_compact():
    t0 = time.perf_counter()
    (cell,) = sweep("bc_honest", {"n_blocks": [2], "block_len": [2]}, 10_000)
    elapsed = time.perf_counter() - t0
    ok = cell.successes == cell.trials
    assert report(
        "criterion 5 (honest completion)",
        ok,
        f"accepted {cell.successes}/{cell.trials} with correct bit, time={elapsed:.2f}s",
    )


def test_criterion_6_send_back_attack():
    (off,) = sweep(
        "ct_sendback",
        {"n_blocks": [2], "block_len": [2], "half_disclosure": [False]},
        2_000,
    )
    ok_off = off.successes == off.trials
    all_ok = report(
        "criterion 6 (mirror, single-phase disclosure)",
        ok_off,
        f"all {off.successes}/{off.trials} accepted runs produced lot 0",
    )
    grid = [((2, 1), 10_000), ((4, 1), 10_000), ((2, 2), 10_000), ((6, 2), 20_000)]
    for (n, k), trials in grid:
        (cell,) = sweep(
            "ct_sendback", {"n_blocks": [n], "block_len": [k]}, trials
        )
        oracle = mirror_guess_acceptance(n, k)
        assert cell.reference == float(oracle)
        assert oracle == Fraction(1, 2 ** (n * k // 2))
        ok = abs(cell.z) <= 3.0
        all_ok &= report(
            "criterion 6 (mirror, staged disclosure)",
            ok,
            f"N={n} k={k} abort={1 - cell.estimate:.5f} "
            f"reference={1 - cell.reference:.5f} z={cell.z:+.2f}",
        )
    assert all_ok


def test_criterion_7_tailed_completion():
    all_ok = True
    for xi in (2.0, 4.0, 6.0):
        (cell,) = sweep(
            "tailed_completion",
            {"n_blocks": [2], "block_len": [2], "tail_exponent": [xi]},
            10_000,
        )
        ref = (1.0 - math.exp(-xi)) ** 4
        ok = abs(cell.z) <= 3.0
        all_ok &= report(
            "criterion 7 (tailed completion)",
            ok,
            f"xi={xi} completion={cell.estimate:.5f} reference={ref:.5f} z={cell.z:+.2f}",
        )
    assert all_ok


def _brute_min_error(p0, p1, rho0, rho1):
    def quad(rho, theta):
        c, s = np.cos(theta), np.sin(theta)
        return rho[0, 0] * c * c + (rho[0, 1] + rho[1, 0]) * c * s + rho[1, 1] * s * s

    def err(theta):  # guess 1 on the projector onto (cos theta, sin theta)
        return p0 * quad(rho0, theta) + p1 * (np.trace(rho1) - quad(rho1, theta))

    thetas = np.linspace(0.0, math.pi, 2001)
    values = err(thetas)
    i = int(np.argmin(values))
    refined = minimize_scalar(
        err,
        bounds=(thetas[max(i - 1, 0)], thetas[min(i + 1, 2000)]),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return min(float(refined.fun), float(values[i]), p0, p1)


def test_criterion_8_helstrom_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        p0 = rng.uniform(0.2, 0.8)
        prior = PriorPair(p0, 1 - p0)

        def density():
            a = rng.normal(size=(2, 2))
            m = a @ a.T
            return m / np.trace(m)

        rho0, rho1 = density(), density()
        res = helstrom_error(prior, rho0, rho1)
        worst = max(worst, abs(res - _brute_min_error(prior.p0, prior.p1, rho0, rho1)))
    orthogonal = helstrom_error(PriorPair.even(), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    ok = worst < 1e-6 and orthogonal == 0.0
    assert report(
        "criterion 8 (discriminator vs projector search)",
        ok,
        f"worst deviation {worst:.2e} over 100 ensembles, orthogonal error {orthogonal}",
    )


def test_criterion_9a_block_bound_at_unit_blocks():
    cells = sweep("parity_guess", {"n_blocks": [1, 2, 3, 4, 5, 6], "block_len": [1]}, 100_000)
    all_ok = True
    for cell in cells:
        n = cell.params_dict["n_blocks"]
        plain = pc_parity_plain(n)
        bound = pc_parity_block_bound(n, 1)
        sig = _sigma(plain, cell.trials)
        ok = abs(cell.estimate - plain) <= 3 * sig and cell.estimate <= bound + 3 * sig
        all_ok &= report(
            "criterion 9a (bound holds and is loose at k=1)",
            ok,
            f"N={n} estimate={cell.estimate:.5f} exact={plain:.5f} bound={bound:.5f}",
        )
    assert all_ok


def _parity_evidence_weights(n, k):
    """Joint law of the count evidence and the parity under the honest sender.

    Block values are uniform and each block of k channels fires Bin(k, 1/2),
    so with l one-blocks (weight C(N, l)) the fired ones follow Bin(l*k, 1/2)
    and the fired zeros Bin((N-l)*k, 1/2).  Yields (fired ones, fired zeros,
    [even weight, odd weight]) in units of 2^-(N + N*k).
    """
    for ones in range(n * k + 1):
        for zeros in range(n * k - ones + 1):
            weights = [0, 0]
            for level in range(n + 1):
                weights[level % 2] += (
                    math.comb(n, level)
                    * math.comb(level * k, ones)
                    * math.comb((n - level) * k, zeros)
                )
            yield ones, zeros, weights


def _exact_parity_success(n, k):
    """Optimal parity-guess success: the larger parity weight per evidence."""
    total = sum(max(weights) for _, _, weights in _parity_evidence_weights(n, k))
    return Fraction(total, 2 ** (n + n * k))


def _guesser_parity_success(n, k):
    """Success of `exact_parity_guesser`, summed exactly over the same law."""
    total = 0
    for ones, zeros, weights in _parity_evidence_weights(n, k):
        if weights == [0, 0]:
            continue
        evidence = {i: 1 for i in range(ones)}
        evidence.update({ones + i: 0 for i in range(zeros)})
        total += weights[exact_parity_guesser(evidence, n, k).guess]
    return Fraction(total, 2 ** (n + n * k))


def test_criterion_9b_block_bound_beyond_unit_blocks():
    """The measured optimal guesser at k > 1 matches the exact optimal
    success, and that exact success lies strictly above the block-coded
    closed form 1/2 + 2^(-alpha*N*k) at every tested (N, k).  The closed form
    is therefore a reference curve, not an upper bound, beyond unit blocks
    (for example (2,2): exact success 25/32 = 0.781 against 0.625); see the
    README, "Known limits of the closed-form guessing bound".
    """
    exact = {
        (2, 2): Fraction(25, 32),
        (3, 2): Fraction(11, 16),
        (4, 2): Fraction(323, 512),
        (2, 3): Fraction(113, 128),
        (3, 3): Fraction(3231, 4096),
        (4, 3): Fraction(1469, 2048),
    }
    for (n, k), value in exact.items():
        assert _exact_parity_success(n, k) == value
        assert _guesser_parity_success(n, k) == value
    for n in range(1, 7):
        assert _exact_parity_success(n, 1) == Fraction(pc_parity_plain(n))

    cells = sweep(
        "parity_guess", {"n_blocks": [2, 3, 4], "block_len": [2, 3]}, 100_000
    )
    assert len(cells) == len(exact)
    all_ok = True
    for cell in cells:
        n = cell.params_dict["n_blocks"]
        k = cell.params_dict["block_len"]
        value = exact[(n, k)]
        bound = pc_parity_block_bound(n, k)
        sig = _sigma(float(value), cell.trials)
        ok = abs(cell.estimate - value) <= 3 * sig and value > Fraction(bound)
        all_ok &= report(
            "criterion 9b (exact optimal guess above block bound, k>1)",
            ok,
            f"N={n} k={k} estimate={cell.estimate:.5f} exact={float(value):.5f} "
            f"bound={bound:.5f} z={(cell.estimate - value) / sig:+.2f}",
        )
    assert all_ok, (
        "at k > 1 the measured guesser must match the exact optimal success "
        "within 3 sigma, and that success must exceed the block-coded closed form"
    )
