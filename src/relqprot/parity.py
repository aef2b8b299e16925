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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_ENUM_BOUND",
    "InconsistentEvidenceError",
    "ParityGuess",
    "block_string_parity",
    "count_block_strings",
    "count_block_strings_closed",
    "alpha",
    "pc_parity_plain",
    "pc_parity_block_bound",
    "pc_parity_optimal",
    "p_fixed_block",
    "p_acc_fixed",
    "parity_posterior",
    "exact_parity_guesser",
]

# The enumerator below is the tests' reference for the closed-form counter. It
# and this bound stay in the package because bench/workloads.py reads both.
DEFAULT_ENUM_BOUND = 20


class InconsistentEvidenceError(ValueError):
    """Raised when no valid block string is consistent with the evidence."""


def _validate_nk(n_blocks: int, block_len: int) -> None:
    if n_blocks < 1:
        raise ValueError("n_blocks must be at least 1")
    if block_len < 1:
        raise ValueError("block_len must be at least 1")


def block_string_parity(bits: Sequence[int], block_len: int) -> int:
    """Parity encoded by a full channel string; rejects non-block strings."""
    ones = sum(bits)
    if ones % block_len:
        raise ValueError("popcount is not a multiple of the block length")
    return (ones // block_len) % 2


def count_block_strings(n_blocks: int, block_len: int) -> tuple[int, int]:
    """Exhaustively count even- and odd-parity block strings.

    Walks all 2^(N*k) channel strings, so N*k may not exceed
    ``DEFAULT_ENUM_BOUND``; use the closed-form counter beyond that.
    """
    _validate_nk(n_blocks, block_len)
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
    _validate_nk(n_blocks, block_len)
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
    _validate_nk(n_blocks, 1)
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


def _half_binomial(n: int) -> np.ndarray:
    """Bin(n, 1/2) probabilities, each rounded once from the exact ratio."""
    return np.array([comb(n, i) / (1 << n) for i in range(n + 1)])


@lru_cache(maxsize=None)
def pc_parity_optimal(n_blocks: int, block_len: int) -> float:
    """Exact optimal parity-guess success from the count evidence at half access.

    With l one-blocks (weight C(N, l) / 2^N) the fired ones follow
    Bin(l k, 1/2) and the fired zeros Bin((N - l) k, 1/2); the optimal guess
    names the heavier parity for each evidence pair (a, b), so the success
    sums max over parity of sum_l C(N,l) C(l k, a) C((N-l) k, b) / 2^(N + N k).
    """
    _validate_nk(n_blocks, block_len)
    n_channels = n_blocks * block_len
    weights = np.zeros((2, n_channels + 1, n_channels + 1))
    prior = _half_binomial(n_blocks)
    for level in range(n_blocks + 1):
        ones = _half_binomial(level * block_len)
        zeros = _half_binomial(n_channels - level * block_len)
        weights[level % 2, : ones.size, : zeros.size] += prior[level] * np.outer(ones, zeros)
    return float(weights.max(axis=0).sum())


def p_fixed_block(block_len: int) -> float:
    """Per-block identification probability when block positions are public."""
    _validate_nk(1, block_len)
    return 1.0 - 0.5 ** block_len


def p_acc_fixed(n_blocks: int, block_len: int) -> float:
    """Full-string identification probability with public block positions."""
    _validate_nk(n_blocks, block_len)
    return p_fixed_block(block_len) ** n_blocks


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


@lru_cache(maxsize=None)
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
    _validate_nk(n_blocks, block_len)
    n_channels = n_blocks * block_len
    if not 0 <= n_unfired <= n_channels:
        raise ValueError("unfired count out of range")
    n_fired = n_channels - n_unfired
    if not 0 <= fired_ones <= n_fired:
        raise ValueError("fired ones count out of range")
    even, odd = _evidence_weights(n_blocks, block_len, fired_ones, n_fired - fired_ones)
    if even == odd == 0:
        raise InconsistentEvidenceError(
            "no valid block string is consistent with the fired outcomes"
        )
    scale = comb(n_channels, n_fired) * comb(n_fired, fired_ones)
    return Fraction(even, scale), Fraction(odd, scale)


class ParityGuess(NamedTuple):
    guess: int
    confidence: float


def exact_parity_guesser(
    fired: Mapping[int, int], n_blocks: int, block_len: int
) -> ParityGuess:
    """Optimal parity guess from the channels that have fired so far.

    ``fired`` maps channel index to the bit its outcome revealed.  Block
    positions are unknown to the guesser, so only the counts matter; the
    posterior is exact under the honest sender's sampling and ties break
    deterministically toward 0 (ties are equally frequent for both secrets,
    so the break introduces no bias).
    """
    _validate_nk(n_blocks, block_len)
    n_channels = n_blocks * block_len
    fired_ones = 0
    for channel, bit in fired.items():
        if not 0 <= channel < n_channels:
            raise ValueError(f"channel {channel} out of range")
        if bit not in (0, 1):
            raise ValueError("fired values must be bits")
        fired_ones += bit
    even, odd = parity_posterior(
        n_blocks, block_len, n_channels - len(fired), fired_ones
    )
    total = even + odd
    if even >= odd:
        return ParityGuess(0, float(even / total))
    return ParityGuess(1, float(odd / total))
