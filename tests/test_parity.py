import math
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqprot.parity import (
    InconsistentEvidenceError,
    alpha,
    block_string_parity,
    count_block_strings,
    count_block_strings_closed,
    exact_parity_guesser,
    p_acc_fixed,
    p_fixed_block,
    parity_posterior,
    pc_parity_block_bound,
    pc_parity_optimal,
    pc_parity_plain,
)
from relqprot.protocol import ProtocolConfig, sample_secret


def pairs_up_to(total_bits):
    return [
        (n, k)
        for n in range(1, total_bits + 1)
        for k in range(1, total_bits + 1)
        if n * k <= total_bits
    ]


# ------------------------------------------------------------------ counting


def test_counting_examples():
    assert count_block_strings(1, 1) == (1, 1)
    assert count_block_strings(2, 2) == (2, 6)
    assert count_block_strings_closed(2, 2) == (2, 6)
    assert sum(count_block_strings_closed(2, 2)) == 8


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_unit_blocks_split_evenly(n):
    even, odd = count_block_strings_closed(n, 1)
    assert even == odd == 2 ** (n - 1)


@pytest.mark.parametrize("n,k", pairs_up_to(14))
def test_closed_form_matches_enumeration(n, k):
    assert count_block_strings_closed(n, k) == count_block_strings(n, k)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (5, 2), (4, 3)])
def test_counts_match_direct_binomial_sums(n, k):
    even = sum(comb(n * k, level * k) for level in range(0, n + 1, 2))
    odd = sum(comb(n * k, level * k) for level in range(1, n + 1, 2))
    assert count_block_strings_closed(n, k) == (even, odd)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 4), (4, 2), (8, 2), (4, 4)])
def test_enumeration_agrees_with_pure_python_walk(n, k):
    """Double-count check with an oracle that shares no code with the library."""
    even = odd = 0
    for bits in product((0, 1), repeat=n * k):
        ones = sum(bits)
        if ones % k:
            continue
        if (ones // k) % 2:
            odd += 1
        else:
            even += 1
    assert count_block_strings(n, k) == (even, odd)


def test_enumeration_bound_enforced():
    with pytest.raises(ValueError):
        count_block_strings(3, 7)


def test_large_closed_counts_stay_exact():
    even, odd = count_block_strings_closed(40, 5)
    assert even + odd == sum(comb(200, 5 * level) for level in range(41))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 257, 512])
def test_pair_block_counts_match_their_closed_form(n):
    """At k = 2, S_even/odd = 2^(2N-2) +/- 2^(N-1) Re(i^N)."""
    real_i_power = (1, 0, -1, 0)[n % 4]
    half = 2 ** (2 * n - 2)
    swing = 2 ** (n - 1) * real_i_power
    assert count_block_strings_closed(n, 2) == (half + swing, half - swing)


@pytest.mark.parametrize("n,k", [(512, 8), (64, 32), (8, 512)])
def test_counts_match_direct_binomial_sums_at_large_sizes(n, k):
    even = sum(comb(n * k, level * k) for level in range(0, n + 1, 2))
    odd = sum(comb(n * k, level * k) for level in range(1, n + 1, 2))
    assert count_block_strings_closed(n, k) == (even, odd)


@pytest.mark.parametrize("k", [1, 64, 4096])
def test_one_block_has_one_string_of_each_parity(k):
    assert count_block_strings_closed(1, k) == (1, 1)


# --------------------------------------------------------------- closed forms


def test_alpha_values():
    assert alpha(1, 1) == pytest.approx(1.0)
    assert alpha(2, 2) == pytest.approx(0.75)


def test_valid_fraction_decreases_with_block_length():
    # Longer blocks leave fewer valid strings per channel string, so the
    # valid fraction S / 2^(N k) falls monotonically.  The entropy ratio
    # alpha itself is not monotone: it dips below 1 and climbs back as the
    # dominant binomial swallows the exponent.
    for n in (2, 4, 7):
        fractions = []
        for k in range(1, 9):
            even, odd = count_block_strings_closed(n, k)
            fractions.append(Fraction(even + odd, 2 ** (n * k)))
        assert all(a > b for a, b in zip(fractions, fractions[1:]))
        assert all(alpha(n, k) < 1.0 for k in range(2, 9))
        assert alpha(n, 1) == pytest.approx(1.0)


def test_pc_parity_plain():
    assert pc_parity_plain(1) == pytest.approx(0.75)
    assert pc_parity_plain(10) == pytest.approx(0.5 + 2.0**-11)
    assert pc_parity_plain(400) == pytest.approx(0.5)


def test_pc_parity_block_bound():
    for n in (1, 3, 6):
        assert pc_parity_block_bound(n, 1) == pytest.approx(0.5 + 2.0**-n)
    assert pc_parity_block_bound(2, 2) == pytest.approx(0.5 + 2.0**-3)
    assert pc_parity_block_bound(60, 10) == pytest.approx(0.5)


def test_pc_parity_optimal_exact_values():
    # the exact optimal successes at k > 1 that criterion 9b checks
    exact = {
        (2, 2): Fraction(25, 32),
        (3, 2): Fraction(11, 16),
        (4, 2): Fraction(323, 512),
        (2, 3): Fraction(113, 128),
        (3, 3): Fraction(3231, 4096),
        (4, 3): Fraction(1469, 2048),
    }
    for (n, k), value in exact.items():
        assert pc_parity_optimal(n, k) == float(value)
        assert pc_parity_optimal(n, k) > pc_parity_block_bound(n, k)
    for n in range(1, 13):
        assert pc_parity_optimal(n, 1) == pc_parity_plain(n)
    assert pc_parity_optimal(8, 8) == pytest.approx(0.7366, abs=1e-4)
    with pytest.raises(ValueError):
        pc_parity_optimal(0, 2)


def test_fixed_block_probabilities():
    assert p_fixed_block(1) == pytest.approx(0.5)
    assert p_fixed_block(3) == pytest.approx(7 / 8)
    assert p_acc_fixed(4, 3) == pytest.approx((7 / 8) ** 4)


def test_public_positions_beat_scattered_identification():
    for n, k in pairs_up_to(12):
        scattered = 2.0 ** (-alpha(n, k) * n * k)
        assert p_acc_fixed(n, k) >= scattered - 1e-12


# -------------------------------------------------------------------- guesser


def brute_posterior(n, k, fired):
    """Enumerate every completion of the evidence, weighting strings the way
    the honest sender samples them; fully independent of the library path."""
    nk = n * k
    silent = [c for c in range(nk) if c not in fired]
    weights = [Fraction(0), Fraction(0)]
    for bits in product((0, 1), repeat=len(silent)):
        full = dict(fired)
        full.update(dict(zip(silent, bits)))
        ones = sum(full.values())
        if ones % k:
            continue
        level = ones // k
        if level > n:
            continue
        weights[level % 2] += Fraction(comb(n, level), comb(nk, level * k))
    return weights


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_posterior_matches_brute_enumeration(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 3))
    nk = n * k
    n_fired = data.draw(st.integers(0, nk))
    channels = data.draw(
        st.lists(st.integers(0, nk - 1), min_size=n_fired, max_size=n_fired, unique=True)
    )
    fired = {c: data.draw(st.integers(0, 1)) for c in channels}
    expected = brute_posterior(n, k, fired)
    unfired = nk - len(fired)
    ones = sum(fired.values())
    if expected[0] + expected[1] == 0:
        with pytest.raises(InconsistentEvidenceError):
            parity_posterior(n, k, unfired, ones)
        return
    got = parity_posterior(n, k, unfired, ones)
    assert got == tuple(expected)


def completion_sum(n, k, unfired, ones):
    """The posterior as a sum over the completions of the silent channels:
    j more ones give l = (ones + j) / k one-blocks, each string weighted
    C(N, l) / C(N*k, l*k), with C(unfired, j) such strings."""
    weights = [Fraction(0), Fraction(0)]
    for j in range(unfired + 1):
        level, rest = divmod(ones + j, k)
        if not rest and level <= n:
            weights[level % 2] += Fraction(comb(unfired, j) * comb(n, level), comb(n * k, level * k))
    return tuple(weights)


def test_posterior_matches_the_completion_sum():
    for n, k in [*product(range(1, 9), range(1, 5)), (16, 4)]:
        for unfired in range(n * k + 1):
            for ones in range(n * k - unfired + 1):
                expected = completion_sum(n, k, unfired, ones)
                if sum(expected) == 0:
                    with pytest.raises(InconsistentEvidenceError):
                        parity_posterior(n, k, unfired, ones)
                else:
                    assert parity_posterior(n, k, unfired, ones) == expected, (n, k, unfired, ones)


def test_guesser_examples():
    assert exact_parity_guesser({}, 3, 2) == (0, 0.5)
    guess, conf = exact_parity_guesser({0: 1, 1: 1, 2: 0, 3: 0}, 2, 2)
    assert (guess, conf) == (1, 1.0)
    assert exact_parity_guesser({1: 0}, 2, 1) == (0, 0.5)
    assert exact_parity_guesser({0: 1}, 2, 1) == (0, 0.5)


def test_guesser_certain_when_both_values_seen_small_blocks():
    # any 1 and any 0 visible pins the single one-block, hence the parity
    guess, conf = exact_parity_guesser({0: 1, 3: 0}, 2, 2)
    assert (guess, conf) == (1, 1.0)


def test_guesser_inconsistent_evidence():
    with pytest.raises(InconsistentEvidenceError):
        exact_parity_guesser({0: 1, 1: 0}, 1, 2)


def test_guesser_input_validation():
    with pytest.raises(ValueError):
        exact_parity_guesser({7: 1}, 2, 2)
    with pytest.raises(ValueError):
        exact_parity_guesser({0: 2}, 2, 2)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_guess_success_matches_plain_formula(n):
    rng = np.random.default_rng(100 + n)
    trials = 30_000
    parity, _, bits = sample_secret(ProtocolConfig(n, 1), trials, rng)
    seen = rng.random((trials, n)) < 0.5
    hits = 0
    for secret, row, mask in zip(parity, bits.tolist(), seen):
        fired = {c: row[c] for c in np.flatnonzero(mask).tolist()}
        hits += exact_parity_guesser(fired, n, 1).guess == secret
    ref = pc_parity_plain(n)
    sigma = math.sqrt(ref * (1 - ref) / trials)
    assert abs(hits / trials - ref) <= 3 * sigma
    assert 0.5 - 3 * sigma <= hits / trials


# ------------------------------------------------------------------ sampling
# ``sample_secret`` is the protocol engine's batched sender: (parity, channel
# blocks, channel bits) for every trial.


def test_block_code_structure():
    # block values first, then a uniform channel permutation; channel c
    # carries slot perm[c] of block perm[c] // k and that block's value
    parity, blocks, bits = sample_secret(ProtocolConfig(2, 2), 5, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, (5, 2))
    perm = np.argsort(rng.random((5, 4)), axis=1)
    assert np.array_equal(blocks, perm // 2)
    assert np.array_equal(bits, np.take_along_axis(values, blocks, axis=1))
    assert np.array_equal(parity, values.sum(axis=1) % 2)


def test_random_code_is_permutation():
    trials = 3000
    _, blocks, _ = sample_secret(ProtocolConfig(3, 4), trials, np.random.default_rng(8))
    assert np.array_equal(np.sort(blocks, axis=1), np.tile(np.repeat(np.arange(3), 4), (trials, 1)))
    # the shuffle hides the blocks: channel 0 lands in each block equally often
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for block in range(3):
        assert abs(np.count_nonzero(blocks[:, 0] == block) / trials - 1 / 3) <= 3 * sigma


def test_sample_secret_consistency():
    trials = 2000
    parity, blocks, bits = sample_secret(ProtocolConfig(3, 2), trials, np.random.default_rng(9))
    for secret, row_blocks, row_bits in zip(parity, blocks, bits.tolist()):
        for block in range(3):  # every block of k channels carries one value
            assert len({row_bits[c] for c in np.flatnonzero(row_blocks == block)}) == 1
        assert block_string_parity(row_bits, 2) == secret
    assert abs(parity.mean() - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_block_string_parity_rejects_invalid():
    with pytest.raises(ValueError):
        block_string_parity((1, 0, 0, 0), 2)
    assert block_string_parity((1, 1, 0, 0), 2) == 1
