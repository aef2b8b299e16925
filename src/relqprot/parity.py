"""Block-coded parity combinatorics and closed-form guessing probabilities.

A secret bit is the parity of N block values, each value replicated over a
block of k channels and the N*k channels shuffled by a secret permutation.
From the receiver's side the only strings that can occur are those whose
popcount is a multiple of k, and their parity is popcount/k mod 2.  This
module counts those strings exactly, as sums of binomials C(N*k, l*k) over
even and odd l, evaluates the guessing formulas, and implements the optimal
parity guesser from partial detector evidence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_ENUM_BOUND",
    "InconsistentEvidenceError",
    "ParityGuess",
    "count_block_strings",
    "count_block_strings_closed",
    "alpha",
    "pc_parity_plain",
    "pc_parity_block_bound",
    "pc_parity_optimal",
    "parity_posterior",
    "exact_parity_guesser",
]

# The enumerator below is the tests' reference for the closed-form counter. It
# and this bound stay in the package because bench/workloads.py reads both.
DEFAULT_ENUM_BOUND = 20


class InconsistentEvidenceError(ValueError):
    """Raised when no valid block string is consistent with the evidence."""


def _integer(name: str, value) -> int:
    if type(value) is int:  # the rule for every count and index: int or numpy integer
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _natural(name: str, value) -> int:
    """The integer rule for a count or a seed, which must not be negative."""
    if (value := _integer(name, value)) < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _validate_nk(n_blocks, block_len) -> tuple[int, int]:
    n_blocks, block_len = _integer("n_blocks", n_blocks), _integer("block_len", block_len)
    if n_blocks < 1 or block_len < 1:  # the one block-geometry rule
        raise ValueError(f"{'n_blocks' if n_blocks < 1 else 'block_len'} must be at least 1")
    return n_blocks, block_len


def count_block_strings(n_blocks: int, block_len: int) -> tuple[int, int]:
    """Exhaustively count even- and odd-parity block strings.

    Walks all 2^(N*k) channel strings, so N*k may not exceed
    ``DEFAULT_ENUM_BOUND``; use the closed-form counter beyond that.
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    n = n_blocks * block_len
    if n > DEFAULT_ENUM_BOUND:
        raise ValueError(
            f"enumerating 2^{n} strings exceeds the bound of 2^{DEFAULT_ENUM_BOUND}"
        )
    states = np.arange(1 << n, dtype=np.uint64)
    pop = np.bitwise_count(states)
    valid = pop % block_len == 0
    levels = pop[valid] // block_len
    even = int(np.count_nonzero(levels % 2 == 0))
    odd = int(np.count_nonzero(levels % 2 == 1))
    return even, odd


def count_block_strings_closed(n_blocks: int, block_len: int) -> tuple[int, int]:
    """Count even- and odd-parity block strings exactly, N + 1 integer steps.

    S_even/odd sum C(N*k, l*k) over even/odd l.  Each term comes from the one
    before it as C(n, j + k) = C(n, j) perm(n - j, k) // perm(j + k, k); the
    division is exact since C(n, j) perm(n - j, k) = C(n, j + k) perm(j + k, k).
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    n, k = n_blocks * block_len, block_len
    counts, term = [0, 0], 1
    for level in range(n_blocks + 1):
        counts[level % 2] += term
        j = level * k
        term = term * math.perm(n - j, k) // math.perm(j + k, k)
    return counts[0], counts[1]


def alpha(n_blocks: int, block_len: int) -> float:
    """Bits of valid-string entropy per channel, log2(S_even + S_odd) / (N*k)."""
    even, odd = count_block_strings_closed(n_blocks, block_len)
    return math.log2(even + odd) / (n_blocks * block_len)


def pc_parity_plain(n_blocks: int) -> float:
    """Exact parity-guess success at half access with unit blocks (k = 1)."""
    n_blocks, _ = _validate_nk(n_blocks, 1)
    return 0.5 + 0.5 ** (n_blocks + 1)


def pc_parity_block_bound(n_blocks: int, block_len: int) -> float:
    """Nominal block-coded guessing bound 1/2 + 2^(-alpha * N * k).

    The exponential term equals one over the total number of valid block
    strings.  At k = 1 this exceeds the exact value by a factor-2 slack in
    the exponential term; for k > 1 the quantity is a heuristic that the
    measured optimal guesser can beat at small sizes (see the sweep report
    and README), so treat it as a reference curve rather than a guarantee.
    """
    return 0.5 + 1 / sum(count_block_strings_closed(n_blocks, block_len))


def _binomial_row(m: int) -> list[int]:
    """C(m, j) for j = 0..m in exact integers, each as C(m, j) (m - j) // (j + 1)."""
    row = [1]
    for j in range(m):
        row.append(row[-1] * (m - j) // (j + 1))
    return row


def _half_binomial(n: int) -> np.ndarray:
    """Bin(n, 1/2) probabilities, each rounded once from the exact ratio."""
    return np.array([count / (1 << n) for count in _binomial_row(n)])


@lru_cache(maxsize=None, typed=True)  # typed, so 2.0 or True misses and is checked
def pc_parity_optimal(n_blocks: int, block_len: int) -> float:
    """Exact optimal parity-guess success from the count evidence at half access.

    With l one-blocks (weight C(N, l) / 2^N) the fired ones follow
    Bin(l k, 1/2) and the fired zeros Bin((N - l) k, 1/2); the optimal guess
    names the heavier parity for each evidence pair (a, b), so the success
    sums max over parity of sum_l C(N,l) C(l k, a) C((N-l) k, b) / 2^(N + N k).
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    n_channels = n_blocks * block_len
    weights = np.zeros((2, n_channels + 1, n_channels + 1))
    prior = _half_binomial(n_blocks)
    rows = [_half_binomial(level * block_len) for level in range(n_blocks + 1)]
    for level, (ones, zeros) in enumerate(zip(rows, rows[::-1])):
        weights[level % 2, : ones.size, : zeros.size] += prior[level] * np.outer(ones, zeros)
    return float(weights.max(axis=0).sum())


def _evidence_weights(n_blocks: int, block_len: int, ones: int, zeros: int) -> list[int]:
    """Integer weights [even, odd] of a (fired ones, fired zeros) pair: C(N, l)
    C(l k, ones) C((N - l) k, zeros) summed over the one-block counts l with room
    for both counts.  The fire probability scales both alike; the heavier wins."""
    k, weights = block_len, [0, 0]
    for level in range(-(-ones // k), n_blocks + 1 + (-zeros // k)):
        weights[level % 2] += (
            comb(n_blocks, level) * comb(level * k, ones) * comb((n_blocks - level) * k, zeros)
        )
    return weights


@lru_cache(maxsize=None, typed=True)  # typed, so 2.0 or True misses and is checked
def parity_posterior(
    n_blocks: int, block_len: int, n_unfired: int, fired_ones: int
) -> tuple[Fraction, Fraction]:
    """Exact posterior weights (even, odd) for the parity given count evidence.

    The detector evidence reduces to two counts: how many channels are still
    silent and how many fired channels showed a one.  The weights are the
    integer law of ``_evidence_weights`` over C(N*k, fired) C(fired, ones),
    which by the hypergeometric identity sums the sender-sampler weight
    C(N, l) / C(N*k, l*k) of every completion of the silent channels.
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    n_channels = n_blocks * block_len
    n_unfired, fired_ones = _integer("n_unfired", n_unfired), _integer("fired_ones", fired_ones)
    if not 0 <= n_unfired <= n_channels:
        raise ValueError("unfired count out of range")
    n_fired = n_channels - n_unfired
    if not 0 <= fired_ones <= n_fired:
        raise ValueError("fired ones count out of range")
    even, odd = _evidence_weights(n_blocks, block_len, fired_ones, n_fired - fired_ones)
    if even == odd == 0:
        raise InconsistentEvidenceError("no valid block string is consistent with the fired outcomes")
    scale = comb(n_channels, n_fired) * comb(n_fired, fired_ones)
    return Fraction(even, scale), Fraction(odd, scale)


class ParityGuess(NamedTuple):
    guess: int
    confidence: float


def _optimal_guesses(n, k, ones, zeros):
    """Per-trial optimal parity guess from fired ones and zeros, read from a table filled at
    the keys that occur by the law of ``_evidence_weights``, summed over them level by level;
    odd only if strictly heavier, so ties and 0/0 go to 0."""
    size = n * k + 1
    keys = ones * np.int64(size)  # int64 even for int16 counts: keys reach 2^15 once N k > 180
    keys += zeros
    seen = np.flatnonzero(np.bincount(keys))
    dtype = np.int64 if n + n * k <= 62 else object  # exact: every weight is below 2^(N + N k)
    ones_at, zeros_at = np.divmod(seen, size)
    prior, weights = _binomial_row(n), np.zeros((2, seen.size), dtype)
    for low in range(n // 2 + 1):  # levels l and N - l read the same two rows
        rows = {j: np.array(_binomial_row(j * k) + [0] * (n - j) * k, dtype) for j in (low, n - low)}
        for level in rows:  # C(N, l) C(l k, a) C((N - l) k, b)
            weights[level % 2] += prior[level] * rows[level][ones_at] * rows[n - level][zeros_at]
    table = np.zeros(size * size, dtype=bool)
    table[seen] = weights[1] > weights[0]
    return table[keys]


def exact_parity_guesser(
    fired: Mapping[int, int], n_blocks: int, block_len: int
) -> ParityGuess:
    """Optimal parity guess from the channels that have fired so far.

    ``fired`` maps channel index to the bit its outcome revealed.  Block
    positions are unknown to the guesser, so only the counts matter; the
    posterior is exact under the honest sender's sampling and ties break
    deterministically toward 0 (ties are equally frequent for both secrets,
    so the break introduces no bias).  The confidence is the heavier exact
    posterior weight, rounded once to a float.
    """
    n_blocks, block_len = _validate_nk(n_blocks, block_len)
    n_channels, ones = n_blocks * block_len, 0
    for channel, bit in fired.items():
        if not 0 <= _integer("channel", channel) < n_channels:
            raise ValueError(f"channel {channel} out of range")
        if (bit := _integer("fired bit", bit)) not in (0, 1):
            raise ValueError("fired values must be bits")
        ones += bit
    even, odd = parity_posterior(n_blocks, block_len, n_channels - len(fired), ones)
    return ParityGuess(int(odd > even), float(max(even, odd) / (even + odd)))
