"""Eve's distinguishability under hashing: concrete maps and ensemble averages.

The distinguishability of a hashed joint is its L1 distance from (uniform key)
x (Eve's marginal P(e), exact column sums); a source without side information
is the case of one side symbol, P(e) its total mass.  Ensemble expectations
over a hash family are computed exactly, or by Monte Carlo sampling of seeds.
Exactly, a FullyRandomFamily's average is a sum over the 2^|A| subsets (capped
at DEFAULT_MAX_CELLS cells), whatever M is: each output's preimage holds each
symbol independently with probability 1/M.  Every other family's average reads
its `pushforward_blocks`, which picks the family's route and refuses its work,
and Monte Carlo mode reads the same blocks for a draw of seeds, made a block
at a time as the blocks are read.  Seed reductions are correctly rounded sums
(`dists.fsum`, the kernel of `dists.fsum_rows`), so exact results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dists import (JointDist, SubDist, capped_power, fsum, fsum_rows, index_array,
                    range_alphabet, require_same_alphabet, require_size, require_work)
from .hashing import FullyRandomFamily, HashFamily

__all__ = [
    "EnsembleEstimate",
    "pushforward",
    "d1_hashed",
    "joint_pushforward",
    "d1_conditional",
    "d1_conditional_prime",
    "expected_d1",
    "expected_d1_conditional",
    "expected_collision_mass",
    "subset_lower_bound",
    "best_subset_lower_bound",
]

class EnsembleEstimate(NamedTuple):
    """An ensemble average; stderr is None in exact mode."""

    value: float
    stderr: float | None
    mode: str
    n_samples: int | None = None

    @staticmethod
    def require_samples(n: int, seed: int = 0):
        """Refuse a Monte Carlo count below 2 or a negative seed, before any
        sample is drawn."""
        if n < 2:
            raise ValueError("Monte Carlo mode needs at least 2 samples")
        if seed < 0:
            raise ValueError(f"Monte Carlo seed {seed} is negative")

    @classmethod
    def from_samples(cls, values) -> "EnsembleEstimate":
        """Sample mean with the standard error from the unbiased variance."""
        n = len(values)
        cls.require_samples(n)
        mean = fsum(values) / n
        var = fsum([(v - mean) ** 2 for v in values]) / (n - 1)
        return cls(value=mean, stderr=math.sqrt(var / n), mode="mc", n_samples=n)


def _l1_rows(rows: np.ndarray, ref) -> list[float]:
    """L1 distance of each row from `ref` (broadcast), each row summed as
    math.fsum would (`fsum_rows`)."""
    return fsum_rows(np.abs(rows - ref).reshape(len(rows), -1))


def _preimage_sums(weights: np.ndarray, f, m: int):
    """The output alphabet {1..m} and the (m, side) cells of the image of the
    (symbols, side) weights under a concrete map f into it: `fsum_rows` of
    each output's preimage rows, transposed, so each cell is correctly
    rounded.  The map is checked, and the alphabet refused past its cap,
    before any cell is summed."""
    f_map = index_array(f, (len(weights),), 1, m, "map")
    outputs = range_alphabet(m)
    order = np.argsort(f_map, kind="stable")
    bounds = np.searchsorted(f_map, np.arange(1, m + 2), sorter=order).tolist()
    rows = weights[order]
    cells = [fsum_rows(rows[a:b].T) for a, b in zip(bounds[:-1], bounds[1:])]
    return outputs, np.array(cells)


def pushforward(p: SubDist, f, m: int) -> SubDist:
    """Image distribution of p under a concrete map into {1..m}; each cell is
    the correctly rounded sum of its masses."""
    outputs, cells = _preimage_sums(p.mass[:, None], f, m)
    return SubDist(outputs, cells[:, 0])


def d1_hashed(p: SubDist, f, m: int) -> float:
    """L1 distance of the hashed source from (total mass) x uniform: the
    one-side-symbol case of :func:`d1_conditional`."""
    return _l1_rows(pushforward(p, f, m).mass[None], p.total / m)[0]


def joint_pushforward(j: JointDist, f, m: int) -> JointDist:
    """Push the secret coordinate of a joint through a concrete map."""
    outputs, cells = _preimage_sums(j.mass, f, m)
    return JointDist(outputs, j.alphabet_e, cells)


def d1_conditional(j: JointDist, f, m: int) -> float:
    """L1 distance of P(f(A), E) from (uniform on {1..m}) x P(E)."""
    hashed = joint_pushforward(j, f, m)
    return _l1_rows(hashed.mass[None], np.array(fsum_rows(j.mass.T)) / m)[0]


def d1_conditional_prime(j: JointDist, f, m: int) -> float:
    """Variant measured against the true product P(f(A)) x P(E).

    Never exceeds twice :func:`d1_conditional`, and coincides with it when
    the hashed marginal is exactly uniform.
    """
    hashed = joint_pushforward(j, f, m)
    ref = np.outer(hashed.mass.sum(axis=1), j.mass.sum(axis=0))
    return _l1_rows(hashed.mass[None], ref)[0]


def _subset_law(fam: FullyRandomFamily, weights, terms, empty: float) -> float:
    """E sum_y terms(P_f(y)) summed over its cells, for a fully random f.

    Each output's preimage S holds each symbol independently with probability
    1/M, so the average is M sum_S M^-|S| (1 - 1/M)^(|A|-|S|) terms(P(S)).
    The empty set adds (1 - 1/M)^|A| `empty` (M terms(0), given by the
    caller); each other |S| = j carries the weight (M-1)^(|A|-j) / M^(|A|-1),
    at most 1, rounded once from exact integers, so no M-sized number is a
    float."""
    m, size = fam.output_size, fam.input_alphabet.size
    w = np.reshape(np.asarray(weights, dtype=float), (size, -1))
    what = f"subset cells (2^{size} subsets x {w.shape[1]} side symbols)"
    require_work(capped_power(2, size, "subsets") * w.shape[1], what)
    masses, sizes = np.zeros((1, w.shape[1])), np.zeros(1, dtype=np.int64)
    for row in w:
        masses = np.concatenate([masses, masses + row])
        sizes = np.concatenate([sizes, sizes + 1])
    coef = np.array([(m - 1) ** (size - j) / m ** (size - 1) for j in range(1, size + 1)])
    cells = terms(masses[1:]).reshape(len(sizes) - 1, -1) * coef[sizes[1:] - 1, None]
    head = (m - 1) ** size / m**size * empty
    return fsum([head, fsum(cells)])


def _ensemble(
    fam: HashFamily, weights, values_of, terms, empty: float, mode: str, n_samples: int, seed: int
) -> EnsembleEstimate:
    """The average over the seeds of values_of(block of pushforward rows),
    or, exactly for a fully random family, of sum_y terms(P_f(y)) by the
    subset law, whose empty preimage adds `empty` (see `_subset_law`)."""
    if mode == "exact" and isinstance(fam, FullyRandomFamily):
        value = _subset_law(fam, weights, terms, empty)
        return EnsembleEstimate(value=value, stderr=None, mode="exact")
    if mode == "exact":
        values = [v for rows in fam.pushforward_blocks(weights) for v in values_of(rows)]
        return EnsembleEstimate(value=fsum(values) / fam.seed_count, stderr=None, mode="exact")
    if mode == "mc":
        EnsembleEstimate.require_samples(n_samples, seed)
        blocks = fam.pushforward_blocks(weights, (np.random.default_rng(seed), n_samples))
        return EnsembleEstimate.from_samples([v for rows in blocks for v in values_of(rows)])
    raise ValueError(f"unknown mode {mode!r}")


def _expected_d1(fam: HashFamily, weights, marginal, mode: str, n_samples: int, seed: int):
    """E d1 of the hashed weights against (uniform key) x marginal: each seed's
    row against marginal / M, or the subset law against marginal * (1 / M),
    since M may be past the float range there."""
    m = fam.output_size
    ref = marginal * (1 / m)
    values_of = lambda rows: _l1_rows(rows, marginal / m)
    terms = lambda c: np.abs(c - ref)
    return _ensemble(fam, weights, values_of, terms, fsum(marginal), mode, n_samples, seed)


def expected_d1(
    p: SubDist,
    fam: HashFamily,
    mode: str = "exact",
    n_samples: int = 1000,
    seed: int = 0,
) -> EnsembleEstimate:
    """Ensemble average of the hashed source's distance from uniform: the
    one-side-symbol case of :func:`expected_d1_conditional`."""
    require_same_alphabet(fam.input_alphabet, p.alphabet, "family input and distribution")
    return _expected_d1(fam, p.mass, np.array([p.total]), mode, n_samples, seed)


def expected_d1_conditional(
    j: JointDist,
    fam: HashFamily,
    mode: str = "exact",
    n_samples: int = 1000,
    seed: int = 0,
) -> EnsembleEstimate:
    """Ensemble average of the conditional distinguishability."""
    require_same_alphabet(fam.input_alphabet, j.alphabet_a, "family input and secret")
    return _expected_d1(fam, j.mass, np.array(fsum_rows(j.mass.T)), mode, n_samples, seed)


def expected_collision_mass(p: SubDist, fam: HashFamily) -> float:
    """Exact ensemble average of sum_m P(f(A) = m)^2.

    This is the collision-mass form e^(-H_2) of the hashed output, the
    quantity controlled by the leftover hash lemma:  for a universal_2 family
    it is at most e^(-H_2(A)) + (total mass)^2 / M.
    """
    require_same_alphabet(fam.input_alphabet, p.alphabet, "family input and distribution")
    values_of = lambda rows: fsum_rows(rows**2)
    return _ensemble(fam, p.mass, values_of, np.square, 0.0, "exact", 0, 0).value


def _omega_indices(p: SubDist, omega) -> np.ndarray:
    items = [p.alphabet.index(item) if isinstance(item, str) else item for item in omega]
    idx = index_array(items, (-1,), 0, p.alphabet.size - 1, "subset indices")
    if len(set(idx.tolist())) != len(idx):
        raise ValueError("subset contains repeated symbols")
    return idx


def subset_lower_bound(p: SubDist, m: int, omega) -> float:
    """(1 - |omega|/m)^2 * P(omega): a floor on the expected distinguishability
    of any strongly universal_2 family, valid for each subset smaller than m.
    """
    require_size(m, "output size")
    idx = _omega_indices(p, omega)
    if len(idx) >= m:
        raise ValueError("subset must be smaller than the output size")
    frac = 1.0 - len(idx) / m
    return frac * frac * fsum(p.mass[idx])


def best_subset_lower_bound(p: SubDist, m: int) -> tuple[float, tuple[str, ...]]:
    """Maximize the subset bound; the best size-k subset takes the k heaviest
    atoms.  One pass over k: P(omega) is the exact prefix sum of the top-k
    masses as an integer over 2^1074 (every float is a multiple of 2^-1074),
    which int / int rounds once, as `math.fsum` does."""
    require_size(m, "output size")
    order = np.argsort(-p.mass, kind="stable")
    heaviest = p.mass[order[: min(m - 1, p.alphabet.size)]].tolist()
    best, best_k, total = 0.0, 0, 0
    for k, x in enumerate(heaviest, 1):
        num, den = x.as_integer_ratio()
        total += num << (1075 - den.bit_length())
        frac = 1.0 - k / m
        val = frac * frac * (total / (1 << 1074))
        if val > best:
            best, best_k = val, k
    return best, tuple(p.alphabet.symbols[i] for i in order[:best_k])
