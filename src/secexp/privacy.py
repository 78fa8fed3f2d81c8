"""Eve's distinguishability under hashing: concrete maps and ensemble averages.

The unconditional distinguishability of a hashed source is the L1 distance of
the pushforward from uniform; the conditional variant measures the joint
against (uniform key) x (Eve's marginal).  Ensemble expectations over a hash
family are computed exactly by seed enumeration when the seed space is small
enough, or by Monte Carlo sampling otherwise.  Seed reductions use
compensated summation, so exact results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import JointDist, SizeLimitError, SubDist, range_alphabet
from .hashing import HashFamily

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


def _as_map(f, size: int) -> np.ndarray:
    arr = np.asarray(f, dtype=np.int64)
    if arr.shape != (size,):
        raise ValueError(f"map must assign all {size} symbols")
    return arr


def _check_range(f_map: np.ndarray, m: int):
    if f_map.min() < 1 or f_map.max() > m:
        raise ValueError(f"map outputs must lie in 1..{m}")


def pushforward(p: SubDist, f, m: int) -> SubDist:
    """Image distribution of p under a concrete map into {1..m}."""
    f_map = _as_map(f, p.alphabet.size)
    _check_range(f_map, m)
    out = np.bincount(f_map - 1, weights=p.mass, minlength=m)
    return SubDist(range_alphabet(m), out)


def d1_hashed(p: SubDist, f, m: int) -> float:
    """L1 distance of the hashed source from (total mass) x uniform."""
    q = pushforward(p, f, m)
    ref = q.total / m
    return float(math.fsum(np.abs(q.mass - ref).tolist()))


def joint_pushforward(j: JointDist, f, m: int) -> JointDist:
    """Push the secret coordinate of a joint through a concrete map."""
    f_map = _as_map(f, j.alphabet_a.size)
    _check_range(f_map, m)
    out = np.zeros((m, j.alphabet_e.size))
    np.add.at(out, f_map - 1, j.mass)
    return JointDist(range_alphabet(m), j.alphabet_e, out)


def d1_conditional(j: JointDist, f, m: int) -> float:
    """L1 distance of P(f(A), E) from (uniform on {1..m}) x P(E)."""
    hashed = joint_pushforward(j, f, m)
    pe = j.mass.sum(axis=0)
    ref = pe[None, :] / m
    return float(math.fsum(np.abs(hashed.mass - ref).ravel().tolist()))


def d1_conditional_prime(j: JointDist, f, m: int) -> float:
    """Variant measured against the true product P(f(A)) x P(E).

    Never exceeds twice :func:`d1_conditional`, and coincides with it when
    the hashed marginal is exactly uniform.
    """
    hashed = joint_pushforward(j, f, m)
    pe = j.mass.sum(axis=0)
    pf = hashed.mass.sum(axis=1)
    ref = np.outer(pf, pe)
    return float(math.fsum(np.abs(hashed.mass - ref).ravel().tolist()))


def _exact_mean(fam: HashFamily, value_fn) -> float:
    """Uniform average of value_fn over every seed map, read one map at a time."""
    if fam.seed_count * fam.input_alphabet.size > EXACT_WORK_LIMIT:
        raise SizeLimitError(
            "exact mode would exceed the work limit; use Monte Carlo mode"
        )
    fam.require_enumerable()
    return math.fsum(value_fn(f_map) for f_map in fam.iter_maps()) / fam.seed_count


def _ensemble(
    fam: HashFamily, value_fn, mode: str, n_samples: int, seed: int
) -> EnsembleEstimate:
    if mode == "exact":
        return EnsembleEstimate(
            value=_exact_mean(fam, value_fn), stderr=None, mode="exact"
        )
    if mode == "mc":
        rng = np.random.default_rng(seed)
        return EnsembleEstimate.from_samples(
            [value_fn(fam.as_map(fam.sample_seed(rng))) for _ in range(n_samples)]
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
    return _ensemble(fam, lambda f: d1_hashed(p, f, m), mode, n_samples, seed)


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
    return _ensemble(fam, lambda f: d1_conditional(j, f, m), mode, n_samples, seed)


def expected_collision_mass(p: SubDist, fam: HashFamily) -> float:
    """Exact ensemble average of sum_m P(f(A) = m)^2.

    This is the collision-mass form e^(-H_2) of the hashed output, the
    quantity controlled by the leftover hash lemma:  for a universal_2 family
    it is at most e^(-H_2(A)) + (total mass)^2 / M.
    """
    m = fam.output_size

    def value(f_map: np.ndarray) -> float:
        q = pushforward(p, f_map, m)
        return float(math.fsum((q.mass**2).tolist()))

    return _exact_mean(fam, value)


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
