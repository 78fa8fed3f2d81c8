"""Closed-form secrecy bounds and asymptotic exponents.

Covers the universal-hashing distinguishability bound and its exponent, the
equivalent divergence-minimization form, the critical rate, the Cramer
exponent of the heavy-atom probability, the Holenstein-Renner comparison
exponents, and the conditional (side-information) exponents built from the
phi functional.  Everything is in nats.

1-D optimizations run a 1024-interval uniform grid followed by golden-section
refinement around the best grid point; when refinement does not improve on
the grid the grid answer is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as _opt

from .dists import (
    JointDist,
    SubDist,
    kl_divergence,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
    tilt,
)

__all__ = [
    "ExponentResult",
    "HashBoundCurve",
    "HRExponents",
    "maximize_on_interval",
    "hash_d1_bound_at",
    "universal_hash_d1_bound",
    "order2_d1_bound",
    "universal_exponent",
    "divergence_exponent",
    "critical_rate",
    "cramer_exponent",
    "holenstein_renner_exponents",
    "phi_cond",
    "cond_renyi_tilde",
    "conditional_hash_d1_bound_at",
    "conditional_exponent_phi",
    "conditional_exponent_pinsker",
    "conditional_exponent_no_smoothing",
]

GRID_INTERVALS = 1024
GOLDEN_TOL = 1e-10


@dataclass(frozen=True)
class ExponentResult:
    """An optimized exponent value together with its witness.

    `argmax` is the optimizing scalar parameter when the optimization is 1-D;
    `witness` carries a distribution witness where one exists.  A diverging
    objective is flagged rather than returned as a large number.
    """

    value: float
    argmax: float | None
    method: str
    witness: SubDist | None = None
    diverges: bool = False
    note: str | None = None


def _golden_max(fn, lo: float, hi: float, tol: float = GOLDEN_TOL):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def maximize_on_interval(
    fn, lo: float, hi: float, intervals: int = GRID_INTERVALS, refine: bool = True
) -> tuple[float, float]:
    """Grid scan plus local golden-section polish; keeps the grid answer if
    the polish does not improve it (guards non-unimodal objectives)."""
    xs = np.linspace(lo, hi, intervals + 1)
    vals = [fn(float(x)) for x in xs]
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), vals[i]
    if refine and hi > lo:
        a = float(xs[max(i - 1, 0)])
        b = float(xs[min(i + 1, intervals)])
        x, v = _golden_max(fn, a, b)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


# ---------------------------------------------------------------------------
# Universal-hashing distinguishability bound and exponents
# ---------------------------------------------------------------------------


def hash_d1_bound_at(p: SubDist, m: int, s: float) -> float:
    """3 M^(s/(1+s)) e^(-H~_(1+s)/(1+s)): the per-s hashing bound."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must be in [0, 1]")
    return 3.0 * m ** (s / (1.0 + s)) * math.exp(-renyi_tilde(p, s) / (1.0 + s))


@dataclass(frozen=True)
class HashBoundCurve:
    s_values: np.ndarray
    values: np.ndarray
    min_value: float
    argmin_s: float
    value_s1: float  # the order-2 specialization 3 sqrt(M) e^(-H_2/2)


def universal_hash_d1_bound(
    p: SubDist, m: int, s_grid: np.ndarray | None = None
) -> HashBoundCurve:
    """Best hashing bound over s in [0, 1], with the full per-s curve."""
    if m < 1:
        raise ValueError("output size must be >= 1")
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 101)
    values = np.array([hash_d1_bound_at(p, m, float(s)) for s in s_grid])
    neg = lambda s: -hash_d1_bound_at(p, m, s)
    s_star, neg_min = maximize_on_interval(neg, 0.0, 1.0)
    return HashBoundCurve(
        s_values=np.asarray(s_grid, dtype=float),
        values=values,
        min_value=-neg_min,
        argmin_s=s_star,
        value_s1=hash_d1_bound_at(p, m, 1.0),
    )


def order2_d1_bound(p: SubDist, m: int) -> float:
    """sqrt(M) e^(-H_2/2): the collision-entropy bound without smoothing."""
    return math.sqrt(m) * math.exp(-renyi_tilde(p, 1.0) / 2.0)


def universal_exponent(p: SubDist, r: float) -> ExponentResult:
    """max over s in [0,1] of (H~_(1+s) - s R) / (1+s).

    The exponential decay rate of the hashing bound under i.i.d. extension at
    key rate R; zero when R is at least the Shannon entropy.
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("exponent requires a probability distribution")
    fn = lambda s: (renyi_tilde(p, s) - s * r) / (1.0 + s)
    s_star, val = maximize_on_interval(fn, 0.0, 1.0)
    return ExponentResult(value=val, argmax=s_star, method="grid+golden[0,1]")


def critical_rate(p: SubDist) -> float:
    """2 H'_2 - H_2: below this rate the s-restricted exponent loses tightness."""
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("critical rate requires a probability distribution")
    return 2.0 * renyi_tilde_derivative(p, 1.0) - renyi_tilde(p, 1.0)


def _tilt_entropy(p: SubDist, s: float) -> float:
    return shannon_entropy(tilt(p, s))


def _tilted_witness(p: SubDist, r: float, s_hi: float = 1e6) -> tuple[float, SubDist] | None:
    """Find s >= 0 with H(tilt(p, s)) = r by bisection; None if unreachable.

    The entropy of the tilted family is nonincreasing in s, so bisection is
    valid whenever the target is bracketed.
    """
    if _tilt_entropy(p, 0.0) <= r:
        return 0.0, tilt(p, 0.0)
    lo, hi = 0.0, 1.0
    while _tilt_entropy(p, hi) > r:
        hi *= 2.0
        if hi > s_hi:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _tilt_entropy(p, mid) > r:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return s, tilt(p, s)


def _binary_divergence_scan(p: SubDist, r: float) -> tuple[float, SubDist]:
    """Dense 1-D scan over Bernoulli(q) with nested refinement."""
    alph = p.alphabet

    def objective(q: float) -> float:
        cand = SubDist(alph, np.array([q, 1.0 - q]))
        if shannon_entropy(cand) > r + 1e-13:
            return math.inf
        return kl_divergence(cand, p)

    lo, hi, num = 0.0, 1.0, 4001
    best_q, best_v = 0.0, math.inf
    for _ in range(5):
        qs = np.linspace(lo, hi, num)
        vals = [objective(float(q)) for q in qs]
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_q = vals[i], float(qs[i])
        step = (hi - lo) / (num - 1)
        lo = max(0.0, best_q - 10 * step)
        hi = min(1.0, best_q + 10 * step)
    return best_v, SubDist(alph, np.array([best_q, 1.0 - best_q]))


def _projected_divergence_search(p: SubDist, r: float, restarts: int = 8) -> tuple[float, SubDist] | None:
    """Constrained minimization of D(Q||P) s.t. H(Q) <= R from random restarts."""
    n = p.alphabet.size
    supp = p.mass > 0.0
    rng = np.random.default_rng(7)

    def unpack(x: np.ndarray) -> np.ndarray:
        q = np.zeros(n)
        q[supp] = np.abs(x) / np.abs(x).sum()
        return q

    def f(x):
        q = unpack(x)
        pos = q > 0
        return float(np.sum(q[pos] * np.log(q[pos] / p.mass[pos])))

    def h_constraint(x):
        q = unpack(x)
        pos = q > 0
        ent = float(-np.sum(q[pos] * np.log(q[pos])))
        return r - ent  # >= 0 required

    best: tuple[float, SubDist] | None = None
    k = int(supp.sum())
    for _ in range(restarts):
        x0 = rng.dirichlet(np.ones(k))
        res = _opt.minimize(
            f,
            x0,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": h_constraint}],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        if not res.success:
            continue
        q = unpack(res.x)
        cand = SubDist(p.alphabet, q)
        if shannon_entropy(cand) > r + 1e-9:
            continue
        val = kl_divergence(cand, p)
        if best is None or val < best[0]:
            best = (val, cand)
    return best


def divergence_exponent(p: SubDist, r: float) -> ExponentResult:
    """min over Q with H(Q) <= R of D(Q||P).

    The primary candidate is the tilted family through P (its member with
    entropy exactly R solves the constrained problem for full-support P);
    binary alphabets are cross-checked by a dense scan and larger alphabets
    by a constrained-optimizer search, keeping the best feasible candidate.
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("exponent requires a probability distribution")
    if r < 0.0 or r > math.log(p.alphabet.size) + 1e-12:
        raise ValueError("rate must lie in [0, log |alphabet|]")
    if shannon_entropy(p) <= r + 1e-13:
        return ExponentResult(
            value=0.0, argmax=0.0, method="feasible-at-P", witness=p
        )
    candidates: list[tuple[float, SubDist, float | None, str]] = []
    path = _tilted_witness(p, r)
    if path is not None:
        s, q = path
        candidates.append((kl_divergence(q, p), q, s, "tilted-path"))
    if r == 0.0 or not candidates:
        # point masses are the only H(Q) = 0 candidates
        for i in range(p.alphabet.size):
            if p.mass[i] > 0.0:
                q = SubDist.point_mass(p.alphabet, p.alphabet.symbols[i])
                candidates.append((kl_divergence(q, p), q, None, "point-mass"))
    if p.alphabet.size == 2:
        val, q = _binary_divergence_scan(p, r)
        candidates.append((val, q, None, "binary-scan"))
    elif p.alphabet.size > 2:
        found = _projected_divergence_search(p, r)
        if found is not None:
            candidates.append((found[0], found[1], None, "projected-search"))
    candidates.sort(key=lambda c: c[0])
    val, q, s, method = candidates[0]
    return ExponentResult(value=val, argmax=s, method=method, witness=q)


def cramer_exponent(p: SubDist, r: float, s_cap: float = 100.0) -> ExponentResult:
    """max over s >= 0 of H~_(1+s) - s R': the large-deviation rate of the
    heavy-atom probability P^n{P^n(a) > e^(-nR')}.

    Returns 0 when R' is at least the Shannon entropy, and flags divergence
    when R' is below -log(max atom), where the objective grows without bound
    (e.g. every rate below log M for a uniform source).
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("exponent requires a probability distribution")
    h = shannon_entropy(p)
    if r >= h - 1e-15:
        return ExponentResult(value=0.0, argmax=0.0, method="rate-above-entropy")
    slope_floor = -math.log(float(p.mass.max()))
    if r < slope_floor - 1e-12:
        return ExponentResult(
            value=math.inf,
            argmax=None,
            method="degenerate",
            diverges=True,
            note="objective unbounded: rate below -log(max atom)",
        )
    fn = lambda s: renyi_tilde(p, s) - s * r
    s_star, val = maximize_on_interval(fn, 0.0, s_cap)
    note = None
    if s_cap - s_star < 1e-6:
        note = f"maximizer at search cap s = {s_cap}"
    return ExponentResult(
        value=val, argmax=s_star, method=f"grid+golden[0,{s_cap:g}]", note=note
    )


def cramer_exponent_restricted(p: SubDist, r: float) -> ExponentResult:
    """The same objective restricted to s in [0, 1]; matches the unrestricted
    maximum whenever H'_2 <= R' <= H(A)."""
    fn = lambda s: renyi_tilde(p, s) - s * r
    s_star, val = maximize_on_interval(fn, 0.0, 1.0)
    return ExponentResult(value=val, argmax=s_star, method="grid+golden[0,1]")


# ---------------------------------------------------------------------------
# Holenstein-Renner comparison exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HRExponents:
    """Exponent window of the concentration bounds of Holenstein and Renner.

    `lower` comes from their upper bound on the heavy-atom probability (an
    achievable exponent); `upper` from their probability lower bound (an
    exponent ceiling).  Each side carries its validity window; values are
    None outside.  All in nats, with the base-2 statements converted via an
    explicit log 2 factor.
    """

    lower: float | None
    lower_applicable: bool
    upper: float | None
    upper_applicable: bool
    gap: float  # H(A) - R'


def holenstein_renner_exponents(p: SubDist, r: float) -> HRExponents:
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("requires a probability distribution")
    size = p.alphabet.size
    gap = shannon_entropy(p) - r
    ln2 = math.log(2.0)
    lower_ok = -1e-12 <= gap <= math.log(size) + 1e-12
    lower = None
    if lower_ok:
        lower = ln2 * gap * gap / (2.0 * math.log(size + 3) ** 2)
    if size >= 3:
        upper_ok = -1e-12 <= gap <= math.log(size - 1) / 12.0 + 1e-12
        upper = (
            12.0 * ln2 * gap * gap / (math.log(size - 1) ** 2)
            if upper_ok
            else None
        )
    else:
        upper_ok = -1e-12 <= gap <= math.log(3.0) / 24.0 + 1e-12
        upper = (
            24.0 * ln2 * gap * gap / (math.log(3.0) ** 2) if upper_ok else None
        )
    return HRExponents(
        lower=lower,
        lower_applicable=lower_ok,
        upper=upper,
        upper_applicable=upper_ok,
        gap=gap,
    )


# ---------------------------------------------------------------------------
# Conditional (side-information) functionals and exponents
# ---------------------------------------------------------------------------


def phi_cond(j: JointDist, t: float) -> float:
    """log sum_e P(e) (sum_a P(a|e)^(1/(1-t)))^(1-t), defined for t < 1.

    phi(0) = 0 and the derivative at 0 is -H(A|E).  Negative t is allowed;
    it appears in the decoding-error bounds.
    """
    if t >= 1.0:
        raise ValueError("t must be < 1")
    alpha = 1.0 / (1.0 - t)
    pe = j.mass.sum(axis=0)
    cond = j.conditional_a_given_e()
    pos = pe > 0.0
    inner = (cond[:, pos] ** alpha).sum(axis=0)
    terms = pe[pos] * inner ** (1.0 - t)
    return math.log(float(math.fsum(terms.tolist())))


def cond_renyi_tilde(j: JointDist, s: float) -> float:
    """-log sum_(a,e) P(e) P(a|e)^(1+s); its s -> 0 slope recovers H(A|E)."""
    if s <= -1.0:
        raise ValueError("order parameter must satisfy s > -1")
    pe = j.mass.sum(axis=0)
    cond = j.conditional_a_given_e()
    pos = pe > 0.0
    total = float(
        math.fsum((pe[pos] * (cond[:, pos] ** (1.0 + s)).sum(axis=0)).tolist())
    )
    return -math.log(total)


def conditional_hash_d1_bound_at(j: JointDist, m: int, t: float) -> float:
    """3 M^t e^(phi(t)): the side-information hashing bound at parameter t."""
    if not 0.0 <= t <= 0.5:
        raise ValueError("t must be in [0, 1/2]")
    return 3.0 * m**t * math.exp(phi_cond(j, t))


def conditional_exponent_phi(j: JointDist, r: float) -> ExponentResult:
    """max over t in [0, 1/2] of -phi(t) - t R."""
    fn = lambda t: -phi_cond(j, t) - t * r
    t_star, val = maximize_on_interval(fn, 0.0, 0.5)
    return ExponentResult(value=val, argmax=t_star, method="grid+golden[0,1/2]")


def conditional_exponent_pinsker(j: JointDist, r: float) -> ExponentResult:
    """max over s in [0, 1] of (H~_(1+s)(A|E) - s R)/2: the mutual-information
    route through Pinsker's inequality; never beats the phi form below H(A|E)."""
    fn = lambda s: (cond_renyi_tilde(j, s) - s * r) / 2.0
    s_star, val = maximize_on_interval(fn, 0.0, 1.0)
    return ExponentResult(value=val, argmax=s_star, method="grid+golden[0,1]")


def conditional_exponent_no_smoothing(j: JointDist, r: float) -> float:
    """(H~_2(A|E) - R)/2: the order-2 bound applied directly, no truncation."""
    return (cond_renyi_tilde(j, 1.0) - r) / 2.0


def additive_pair_joint(p: SubDist, pe: SubDist | None = None, module=None) -> JointDist:
    """Joint with P(a|e) = P(a - e): Eve sees an additively masked copy.

    Index arithmetic defaults to the cyclic group on the alphabet size when
    no module is given.
    """
    n = p.alphabet.size
    if pe is None:
        pe = SubDist.uniform(p.alphabet)
    if pe.alphabet.size != n:
        raise ValueError("marginals must have equal sizes")
    mass = np.zeros((n, n))
    for e in range(n):
        for a in range(n):
            diff = module.sub_idx(a, e) if module is not None else (a - e) % n
            mass[a, e] = pe.mass[e] * p.mass[diff]
    return JointDist(p.alphabet, pe.alphabet, mass)
