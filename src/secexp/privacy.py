"""Eve's distinguishability under hashing: concrete maps and ensemble averages.

The unconditional distinguishability of a hashed source is the L1 distance of
the pushforward from uniform; the conditional variant measures the joint
against (uniform key) x (Eve's marginal).  Ensemble expectations over a hash
family are computed exactly by seed enumeration when the seed space is small
enough, or by Monte Carlo sampling otherwise, reading the seed maps in blocks.
Seed reductions use compensated summation, so exact results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import BLOCK_CELLS, JointDist, SizeLimitError, SubDist, fsum_rows, range_alphabet
from .hashing import HashFamily, map_histograms

__all__ = [
    "EnsembleEstimate",
    "EXACT_WORK_LIMIT",
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

# Exact mode refuses beyond this many weighted evaluations (seeds x alphabet).
EXACT_WORK_LIMIT = 10_000_000


@dataclass(frozen=True)
class EnsembleEstimate:
    """An ensemble average; stderr is None in exact mode."""

    value: float
    stderr: float | None
    mode: str
    n_samples: int | None = None

    @classmethod
    def from_samples(cls, values) -> "EnsembleEstimate":
        """Sample mean with the standard error from the unbiased variance."""
        n = len(values)
        if n < 2:
            raise ValueError("Monte Carlo mode needs at least 2 samples")
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        return cls(value=mean, stderr=math.sqrt(var / n), mode="mc", n_samples=n)


def _valid_map(f, size: int, m: int) -> np.ndarray:
    f_map = np.asarray(f, dtype=np.int64)
    if f_map.shape != (size,):
        raise ValueError(f"map must assign all {size} symbols")
    if f_map.min() < 1 or f_map.max() > m:
        raise ValueError(f"map outputs must lie in 1..{m}")
    return f_map


def _l1_rows(rows: np.ndarray, ref) -> list[float]:
    """L1 distance of each row from `ref` (broadcast), each row summed as
    math.fsum would (`fsum_rows`)."""
    return fsum_rows(np.abs(rows - ref).reshape(len(rows), -1))


def _d1_rows(rows: np.ndarray, m: int) -> list[float]:
    """Distance of each pushforward row from its total mass x uniform."""
    totals = np.array(fsum_rows(rows))
    return _l1_rows(rows, totals[:, None] / m)


def pushforward(p: SubDist, f, m: int) -> SubDist:
    """Image distribution of p under a concrete map into {1..m}."""
    f_map = _valid_map(f, p.alphabet.size, m)
    return SubDist(range_alphabet(m), map_histograms(f_map[None], m, p.mass)[0])


def d1_hashed(p: SubDist, f, m: int) -> float:
    """L1 distance of the hashed source from (total mass) x uniform."""
    return _d1_rows(pushforward(p, f, m).mass[None], m)[0]


def joint_pushforward(j: JointDist, f, m: int) -> JointDist:
    """Push the secret coordinate of a joint through a concrete map."""
    f_map = _valid_map(f, j.alphabet_a.size, m)
    return JointDist(range_alphabet(m), j.alphabet_e, map_histograms(f_map[None], m, j.mass)[0])


def d1_conditional(j: JointDist, f, m: int) -> float:
    """L1 distance of P(f(A), E) from (uniform on {1..m}) x P(E)."""
    hashed = joint_pushforward(j, f, m)
    return _l1_rows(hashed.mass[None], j.mass.sum(axis=0) / m)[0]


def d1_conditional_prime(j: JointDist, f, m: int) -> float:
    """Variant measured against the true product P(f(A)) x P(E).

    Never exceeds twice :func:`d1_conditional`, and coincides with it when
    the hashed marginal is exactly uniform.
    """
    hashed = joint_pushforward(j, f, m)
    ref = np.outer(hashed.mass.sum(axis=1), j.mass.sum(axis=0))
    return _l1_rows(hashed.mass[None], ref)[0]


def _exact_mean(fam: HashFamily, values_of) -> float:
    """Uniform average over every seed map of values_of(block of maps)."""
    if fam.seed_count * fam.input_alphabet.size > EXACT_WORK_LIMIT:
        raise SizeLimitError(
            "exact mode would exceed the work limit; use Monte Carlo mode"
        )
    fam.require_enumerable()
    return math.fsum(v for maps in fam.iter_maps() for v in values_of(maps)) / fam.seed_count


def _ensemble(
    fam: HashFamily, values_of, mode: str, n_samples: int, seed: int
) -> EnsembleEstimate:
    if mode == "exact":
        return EnsembleEstimate(
            value=_exact_mean(fam, values_of), stderr=None, mode="exact"
        )
    if mode == "mc":
        rng = np.random.default_rng(seed)
        seeds = np.array([fam.sample_seed(rng) for _ in range(n_samples)])
        return EnsembleEstimate.from_samples(
            [v for maps in fam.iter_maps(seeds) for v in values_of(maps)]
        )
    raise ValueError(f"unknown mode {mode!r}")


def expected_d1(
    p: SubDist,
    fam: HashFamily,
    mode: str = "exact",
    n_samples: int = 1000,
    seed: int = 0,
) -> EnsembleEstimate:
    """Ensemble average of the hashed source's distance from uniform."""
    if fam.input_alphabet != p.alphabet:
        raise ValueError("family input alphabet must match the distribution")
    m = fam.output_size
    values_of = lambda maps: _d1_rows(map_histograms(maps, m, p.mass), m)
    return _ensemble(fam, values_of, mode, n_samples, seed)


def expected_d1_conditional(
    j: JointDist,
    fam: HashFamily,
    mode: str = "exact",
    n_samples: int = 1000,
    seed: int = 0,
) -> EnsembleEstimate:
    """Ensemble average of the conditional distinguishability."""
    if fam.input_alphabet != j.alphabet_a:
        raise ValueError("family input alphabet must match the secret alphabet")
    m = fam.output_size
    ref = j.mass.sum(axis=0) / m
    # parts of a block whose histograms hold at most BLOCK_CELLS cells (or
    # one map's), so a block's histograms stay small for large |E|
    step = max(1, BLOCK_CELLS // ref.size // m)
    values_of = lambda maps: [
        v
        for s in range(0, len(maps), step)
        for v in _l1_rows(map_histograms(maps[s : s + step], m, j.mass), ref)
    ]
    return _ensemble(fam, values_of, mode, n_samples, seed)


def expected_collision_mass(p: SubDist, fam: HashFamily) -> float:
    """Exact ensemble average of sum_m P(f(A) = m)^2.

    This is the collision-mass form e^(-H_2) of the hashed output, the
    quantity controlled by the leftover hash lemma:  for a universal_2 family
    it is at most e^(-H_2(A)) + (total mass)^2 / M.
    """
    m = fam.output_size
    return _exact_mean(fam, lambda maps: fsum_rows(map_histograms(maps, m, p.mass) ** 2))


def _omega_indices(p: SubDist, omega) -> list[int]:
    out = []
    for item in omega:
        if isinstance(item, str):
            out.append(p.alphabet.index(item))
        else:
            idx = int(item)
            if not 0 <= idx < p.alphabet.size:
                raise ValueError(f"index {idx} out of range")
            out.append(idx)
    if len(set(out)) != len(out):
        raise ValueError("subset contains repeated symbols")
    return out


def subset_lower_bound(p: SubDist, m: int, omega) -> float:
    """(1 - |omega|/m)^2 * P(omega): a floor on the expected distinguishability
    of any strongly universal_2 family, valid for each subset smaller than m.
    """
    idx = _omega_indices(p, omega)
    if len(idx) >= m:
        raise ValueError("subset must be smaller than the output size")
    frac = 1.0 - len(idx) / m
    mass = float(math.fsum(p.mass[idx].tolist())) if idx else 0.0
    return frac * frac * mass


def best_subset_lower_bound(p: SubDist, m: int) -> tuple[float, tuple[str, ...]]:
    """Maximize the subset bound; the best size-k subset takes the k heaviest atoms."""
    order = np.argsort(-p.mass, kind="stable")
    best = 0.0
    best_omega: tuple[str, ...] = ()
    for k in range(min(m - 1, p.alphabet.size) + 1):
        idx = order[:k]
        val = subset_lower_bound(p, m, idx.tolist())
        if val > best:
            best = val
            best_omega = tuple(p.alphabet.symbols[i] for i in idx)
    return best, best_omega
