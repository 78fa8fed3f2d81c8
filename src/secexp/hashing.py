"""Universal and strongly-universal hash ensembles with exhaustive checkers.

A hash family maps an input alphabet to {1, ..., M} under a random seed.
Three ensemble conditions are checkable by full seed enumeration:

  1. universal_2:           any fixed pair of distinct inputs collides with
                            probability at most 1/M over the seed;
  2. balanced:              every seed's map has equal-size preimages;
  3. strongly universal_2:  each single output is exactly uniform and any two
                            distinct inputs hash pairwise independently.

Seed sampling uses numpy's default PCG64 generator seeded from a 64-bit
integer; the stream is stable across platforms and pinned by test vectors in
the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dists import Alphabet, product_alphabet
from .gf import _GF4_MUL, Field

__all__ = [
    "HashFamily",
    "FullyRandomFamily",
    "ToeplitzFamily",
    "ExplicitFamily",
    "fit_toeplitz",
    "NonEnumerableError",
    "Universal2Report",
    "BalancedReport",
    "StronglyUniversal2Report",
    "check_universal2",
    "check_balanced",
    "check_strongly_universal2",
    "ENUMERATION_LIMIT",
]

# Refuse exhaustive checks beyond this many seed maps.
ENUMERATION_LIMIT = 2_000_000


class NonEnumerableError(ValueError):
    """The seed space is too large for exact enumeration."""


class HashFamily:
    """Base class: a seeded ensemble of functions alphabet -> {1..M}."""

    input_alphabet: Alphabet
    output_size: int

    @property
    def seed_count(self) -> int:
        raise NotImplementedError

    def iter_seeds(self):
        raise NotImplementedError

    def eval(self, seed, a_index: int) -> int:
        """Output in {1, ..., M} for the given seed and input index."""
        raise NotImplementedError

    def as_map(self, seed) -> np.ndarray:
        """The whole map for one seed, as an int array over the alphabet order."""
        n = self.input_alphabet.size
        return np.fromiter(
            (self.eval(seed, i) for i in range(n)), dtype=np.int64, count=n
        )

    def sample_seed(self, rng: np.random.Generator):
        raise NotImplementedError

    def iter_maps(self):
        for seed in self.iter_seeds():
            yield self.as_map(seed)

    def require_enumerable(self, limit: int = ENUMERATION_LIMIT):
        if self.seed_count > limit:
            raise NonEnumerableError(
                f"{self.seed_count} seeds exceed enumeration limit {limit}"
            )


class FullyRandomFamily(HashFamily):
    """One independent uniform output per input symbol (strongly universal_2).

    The seed is the entire map, so the seed space has size M^|alphabet|.
    """

    def __init__(self, input_alphabet: Alphabet, output_size: int):
        if output_size < 1:
            raise ValueError("output size must be >= 1")
        self.input_alphabet = input_alphabet
        self.output_size = output_size

    @property
    def seed_count(self) -> int:
        return self.output_size**self.input_alphabet.size

    def iter_seeds(self):
        return itertools.product(
            range(1, self.output_size + 1), repeat=self.input_alphabet.size
        )

    def eval(self, seed, a_index: int) -> int:
        m = seed[a_index]
        if not 1 <= m <= self.output_size:
            raise ValueError(f"seed output {m} out of range")
        return int(m)

    def as_map(self, seed) -> np.ndarray:
        return np.asarray(seed, dtype=np.int64)

    def sample_seed(self, rng: np.random.Generator):
        return tuple(
            int(v)
            for v in rng.integers(
                1, self.output_size + 1, size=self.input_alphabet.size
            )
        )


class ToeplitzFamily(HashFamily):
    """Linear maps F_q^k -> F_q^m given by the block matrix (X | I).

    X is the m x (k-m) Toeplitz block built from k-1 seed digits and I is the
    m x m identity occupying the last m columns, so the map acts as
    a |-> (X | I) a and every seed map is surjective and balanced.  The block
    convention is X[i][j] = seed[(k - m - 1) + i - j], i.e. seed digit 0 sits
    in the top-right corner of X and digit k-2 in the bottom-left.

    Input symbols are big-endian digit strings over F_q; the output digit
    vector o maps to 1 + sum_i o_i q^(m-1-i).
    """

    def __init__(self, q: int, k: int, m: int):
        if not 1 <= m < k:
            raise ValueError("need 1 <= m < k")
        self.q = q
        self.k = k
        self.m = m
        self.field = Field(q)
        self.input_alphabet = product_alphabet(
            Alphabet(tuple(str(d) for d in range(q))), k
        )
        self.output_size = q**m
        # all input digit vectors, row i = digits of symbol i (big-endian)
        self._digits = np.array(
            list(itertools.product(range(q), repeat=k)), dtype=np.int64
        )

    @property
    def seed_count(self) -> int:
        return self.q ** (self.k - 1)

    def iter_seeds(self):
        return itertools.product(range(self.q), repeat=self.k - 1)

    def sample_seed(self, rng: np.random.Generator):
        return tuple(int(v) for v in rng.integers(0, self.q, size=self.k - 1))

    def matrix(self, seed) -> np.ndarray:
        if len(seed) != self.k - 1:
            raise ValueError(f"seed must have {self.k - 1} digits")
        if any(not 0 <= d < self.q for d in seed):
            raise ValueError("seed digit out of field range")
        m, k = self.m, self.k
        mat = np.zeros((m, k), dtype=np.int64)
        for i in range(m):
            for j in range(k - m):
                mat[i, j] = seed[(k - m - 1) + i - j]
            mat[i, (k - m) + i] = 1
        return mat

    def _apply(self, mat: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """Row-wise map of a batch of digit vectors through the matrix."""
        if self.q == 4:
            out = np.zeros((digits.shape[0], self.m), dtype=np.int64)
            for i in range(self.m):
                acc = np.zeros(digits.shape[0], dtype=np.int64)
                for j in range(self.k):
                    acc = np.bitwise_xor(acc, _GF4_MUL[mat[i, j], digits[:, j]])
                out[:, i] = acc
            return out
        return (digits @ mat.T) % self.q

    def eval(self, seed, a_index: int) -> int:
        if not 0 <= a_index < self.input_alphabet.size:
            raise ValueError("input index out of range")
        out = self._apply(self.matrix(seed), self._digits[a_index : a_index + 1])
        return self._digits_to_output(out)[0]

    def as_map(self, seed) -> np.ndarray:
        out = self._apply(self.matrix(seed), self._digits)
        return self._digits_to_output(out)

    def _digits_to_output(self, out_digits: np.ndarray) -> np.ndarray:
        weights = self.q ** np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return (out_digits @ weights) + 1


def fit_toeplitz(m: int, l: int, q: int) -> ToeplitzFamily | None:
    """The Toeplitz family over F_q from M*L = q^k inputs onto M = q^m
    outputs, or None when M and L are not such powers with 1 <= m < k."""
    if q < 2:
        return None
    k = round(math.log(m * l, q))
    mm = round(math.log(m, q))
    if q**k != m * l or q**mm != m or not 1 <= mm < k:
        return None
    return ToeplitzFamily(q, k, mm)


class ExplicitFamily(HashFamily):
    """A hash family given by an explicit list of maps (one per seed)."""

    def __init__(self, input_alphabet: Alphabet, output_size: int, maps):
        self.input_alphabet = input_alphabet
        self.output_size = output_size
        self._maps = [np.asarray(m, dtype=np.int64) for m in maps]
        for m in self._maps:
            if m.shape != (input_alphabet.size,):
                raise ValueError("map length must match alphabet size")
            if m.min() < 1 or m.max() > output_size:
                raise ValueError("map output out of range")

    @property
    def seed_count(self) -> int:
        return len(self._maps)

    def iter_seeds(self):
        return iter(range(len(self._maps)))

    def eval(self, seed, a_index: int) -> int:
        return int(self._maps[seed][a_index])

    def as_map(self, seed) -> np.ndarray:
        return self._maps[seed]

    def sample_seed(self, rng: np.random.Generator):
        return int(rng.integers(0, len(self._maps)))


def _maps_matrix(fam: HashFamily) -> np.ndarray:
    """All seed maps stacked into a (seed_count x |alphabet|) int matrix."""
    fam.require_enumerable()
    return np.stack([m for m in fam.iter_maps()])


@dataclass(frozen=True)
class Universal2Report:
    passed: bool
    max_collision: float
    bound: float
    worst_pair: tuple[str, str] | None


@dataclass(frozen=True)
class BalancedReport:
    passed: bool
    bad_seed_index: int | None
    preimage_sizes: tuple[int, ...] | None


@dataclass(frozen=True)
class StronglyUniversal2Report:
    passed: bool
    single_uniform: bool
    pairwise_independent: bool
    max_single_deviation: float
    max_pair_deviation: float


def check_universal2(fam: HashFamily, tol: float = 1e-12) -> Universal2Report:
    """Exact worst-pair collision probability over the full seed space."""
    maps = _maps_matrix(fam)
    s, n = maps.shape
    counts = np.zeros((n, n), dtype=np.int64)
    for row in maps:
        counts += row[:, None] == row[None, :]
    np.fill_diagonal(counts, 0)
    freq = counts / s
    worst_flat = int(np.argmax(freq))
    i, j = divmod(worst_flat, n)
    max_coll = float(freq[i, j]) if n > 1 else 0.0
    bound = 1.0 / fam.output_size
    worst = None
    if n > 1:
        worst = (fam.input_alphabet.symbols[i], fam.input_alphabet.symbols[j])
    return Universal2Report(
        passed=max_coll <= bound + tol,
        max_collision=max_coll,
        bound=bound,
        worst_pair=worst,
    )


def check_balanced(fam: HashFamily) -> BalancedReport:
    """Pass iff every seed's preimage sizes are all equal."""
    fam.require_enumerable()
    for idx, row in enumerate(fam.iter_maps()):
        sizes = np.bincount(row - 1, minlength=fam.output_size)
        if sizes.min() != sizes.max():
            return BalancedReport(False, idx, tuple(int(v) for v in sizes))
    return BalancedReport(True, None, None)


def check_strongly_universal2(
    fam: HashFamily, tol: float = 1e-12
) -> StronglyUniversal2Report:
    """Exact check of single-output uniformity and pairwise independence."""
    maps = _maps_matrix(fam)
    s, n = maps.shape
    m_out = fam.output_size
    target_single = s / m_out
    max_single = 0.0
    for a in range(n):
        hist = np.bincount(maps[:, a] - 1, minlength=m_out)
        max_single = max(max_single, float(np.abs(hist - target_single).max()) / s)
    target_pair = s / (m_out * m_out)
    max_pair = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            joint = np.zeros((m_out, m_out), dtype=np.int64)
            np.add.at(joint, (maps[:, a] - 1, maps[:, b] - 1), 1)
            max_pair = max(max_pair, float(np.abs(joint - target_pair).max()) / s)
    single_ok = max_single <= tol
    pair_ok = max_pair <= tol
    return StronglyUniversal2Report(
        passed=single_ok and pair_ok,
        single_uniform=single_ok,
        pairwise_independent=pair_ok,
        max_single_deviation=max_single,
        max_pair_deviation=max_pair,
    )
