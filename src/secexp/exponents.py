"""Closed-form secrecy bounds and asymptotic exponents.

Covers the universal-hashing distinguishability bound and its exponent, the
equivalent divergence-minimization form, the critical rate, the Cramer
exponent of the heavy-atom probability, the Holenstein-Renner comparison
exponents, and the conditional (side-information) exponents built from the
phi functional.  Everything is in nats.

1-D optimizations evaluate the objective on a 1024-interval uniform grid in
one array call, then refine around the best grid point by a golden-section
search, keeping the grid answer when refinement does not improve on it; so
objectives and their functionals take arrays of orders.  On a functional of
at least 1024 cells the grid call is screened: the kernel sums one order in
16 exactly and brackets the rest by convexity, and only the grid points
whose bracket can hold the maximum are then summed exactly, which gives the
exhaustive grid's argmax bit for bit (`dists.grid_argmax`).  The
exponents that the figures sweep (`universal_exponent`,
`cramer_exponent_restricted`, and `e_phi`, `e_psi`, `psi_pinsker_exponent`
in `wiretap`) also take a 1-D array of rates: all rates share one grid call
of the functional, and every rate's bracket is polished in lockstep, one
array call per step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dists import (
    JointDist,
    SubDist,
    grid_argmax,
    kl_divergence,
    log_fsum_by_order,
    renyi_tilde,
    renyi_tilde_derivative,
    require_work,
    shannon_entropy,
    tilt,
)

__all__ = [
    "ExponentResult",
    "HashBoundCurve",
    "HRExponents",
    "maximize_on_interval",
    "maximize_over_rates",
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
TILT_CAP = 1e6  # largest tilt order tried before the top-atom branch
CRAMER_S_CAP = 100.0  # largest order the unrestricted Cramer search tries
DIVERGENCE_RESTARTS = 8  # random starts of the scipy divergence oracle


class ExponentResult(NamedTuple):
    """An optimized exponent value together with its witness.

    `argmax` is the optimizing scalar parameter when the optimization is 1-D;
    `witness` carries a distribution witness where one exists.  A diverging
    objective is flagged rather than returned as a large number.  An
    exponent evaluated at an array of rates holds arrays in `value` and
    `argmax`.
    """

    value: float | np.ndarray
    argmax: float | np.ndarray | None
    method: str
    witness: SubDist | None = None
    diverges: bool = False
    note: str | None = None


def _golden_rows(fn, a: np.ndarray, b: np.ndarray):
    """Golden-section search for a maximum on every bracket [a_i, b_i] in
    lockstep: each step is one call of `fn` on one point per row, and a row
    whose bracket has closed keeps its state.  Row i follows the points, and
    ends at the answer, of a search on [a_i, b_i] alone."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (live := b - a > GOLDEN_TOL).any():
        left = fc >= fd  # the maximum is in [a, d], else in [c, b]
        a = np.where(live & ~left, c, a)
        b = np.where(live & left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fn(x)
        c, d = np.where(live, np.where(left, x, d), c), np.where(live, np.where(left, c, x), d)
        fc, fd = (
            np.where(live, np.where(left, fx, fd), fc),
            np.where(live, np.where(left, fc, fx), fd),
        )
    x = (a + b) / 2.0
    return x, fn(x)


def _maximize_rows(fn, lo: float, hi: float, one: bool):
    """Grid scan plus golden-section polish of B objectives (rows) at once;
    each keeps its grid answer where the polish does not improve it.

    With `one` there is one objective: `fn` gets the grid as a 1-D array,
    then floats.  Otherwise `fn` gets the grid shaped (K, 1) and returns
    (K, B) values, then gets one point per row (B,), or a float for every
    row.  The grid's argmax is `grid_argmax`'s, the exhaustive grid's: each
    objective must be monotone in the one kernel value its array call makes
    on the whole grid.  Each row's best grid point is evaluated again as a
    float, one call per distinct point, since numpy's power over many orders
    can differ by an ulp from its one-order paths (exponents 2, 1/2).
    Returns the (B,) maximizers and maxima.
    """
    xs = np.linspace(lo, hi, GRID_INTERVALS + 1)
    i = grid_argmax(fn, xs if one else xs[:, None])
    best_x, best_v = xs[i], np.empty(i.size)
    for point in np.flatnonzero(np.bincount(i)):  # np.unique would import numpy.ma
        hit = i == point
        best_v[hit] = np.broadcast_to(fn(float(xs[point])), i.shape)[hit]
    if hi > lo:
        at = (lambda x: np.array([fn(float(x[0]))], dtype=float)) if one else fn
        x, v = _golden_rows(at, xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, GRID_INTERVALS)])
        won = v > best_v
        best_x, best_v = np.where(won, x, best_x), np.where(won, v, best_v)
    return best_x, best_v


def maximize_on_interval(fn, lo: float, hi: float) -> tuple[float, float]:
    """Grid scan (GRID_INTERVALS intervals) plus local golden-section polish;
    keeps the grid answer if the polish does not improve it (guards
    non-unimodal objectives).

    `fn` gets the whole grid as one array, then floats, and the result is a
    pair of floats; the one-objective case of the batched optimizer.
    """
    x, v = _maximize_rows(fn, lo, hi, True)
    return float(x[0]), float(v[0])


def maximize_over_rates(fn, lo: float, hi: float, r):
    """max over x in [lo, hi] of an objective that closes over the rate r.

    A float r is `maximize_on_interval`.  For a 1-D array of rates, `fn`
    broadcasts its points against r: every rate is solved in one optimizer
    call that shares the grid and polishes all brackets in lockstep, with
    the per-rate answers bit for bit, and more than DEFAULT_MAX_CELLS grid
    cells, rates x (GRID_INTERVALS + 1) orders, are refused.  Returns floats,
    or (len(r),) arrays.
    """
    if np.ndim(r) == 0:
        return maximize_on_interval(fn, lo, hi)
    if np.ndim(r) != 1:
        raise ValueError("rates must be a float or a 1-D array")
    what = f"grid cells ({len(r)} rates x {GRID_INTERVALS + 1} orders)"
    require_work((GRID_INTERVALS + 1) * len(r), what)
    return _maximize_rows(fn, lo, hi, False)


# ---------------------------------------------------------------------------
# Universal-hashing distinguishability bound and exponents
# ---------------------------------------------------------------------------


def _through_log(c: float, m: int, t, decay):
    """c M^t e^decay through log M, for M past 2^1023: inf past the floats."""
    with np.errstate(over="ignore"):
        return c * np.exp(np.multiply(t, math.log(m)) + decay)


def hash_d1_bound_at(p: SubDist, m: int, s):
    """3 M^(s/(1+s)) e^(-H~_(1+s)/(1+s)): the per-s hashing bound; s may be
    an array of orders."""
    orders = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((orders >= 0.0) & (orders <= 1.0)):
        raise ValueError("s must be in [0, 1]")
    exps, decay = orders / (1.0 + orders), -renyi_tilde(p, orders) / (1.0 + orders)
    value = _through_log(3.0, m, exps, decay) if m > 2**1023 else 3.0 * m**exps * np.exp(decay)
    return float(value[0]) if np.ndim(s) == 0 else value


class HashBoundCurve(NamedTuple):
    """The minimum of the per-s hashing bound over s in [0, 1], and its s."""

    min_value: float
    argmin_s: float


def universal_hash_d1_bound(p: SubDist, m: int) -> HashBoundCurve:
    """Best hashing bound over s in [0, 1]."""
    if m < 1:
        raise ValueError("output size must be >= 1")
    s_star, neg_min = maximize_on_interval(lambda s: -hash_d1_bound_at(p, m, s), 0.0, 1.0)
    return HashBoundCurve(min_value=-neg_min, argmin_s=s_star)


def order2_d1_bound(p: SubDist, m: int) -> float:
    """sqrt(M) e^(-H_2/2): the collision-entropy bound without smoothing."""
    decay = -renyi_tilde(p, 1.0) / 2.0
    if m > 2**1023:
        return float(_through_log(1.0, m, 0.5, decay))
    return math.sqrt(m) * math.exp(decay)


def _require_inputs(r, p: SubDist | None = None):
    """R (every rate of an array) finite and >= 0; p, when given, a
    probability distribution."""
    if p is not None and not p.is_probability():
        raise ValueError("exponent requires a probability distribution")
    rates = np.asarray(r, dtype=float)
    if not (np.isfinite(rates).all() and (rates >= 0.0).all()):
        raise ValueError("rate must be finite and >= 0")


def universal_exponent(p: SubDist, r) -> ExponentResult:
    """max over s in [0,1] of (H~_(1+s) - s R) / (1+s).

    The exponential decay rate of the hashing bound under i.i.d. extension at
    key rate R; zero when R is at least the Shannon entropy.  For a 1-D
    array of rates, `value` and `argmax` are arrays, one entry per rate.
    """
    _require_inputs(r, p)
    fn = lambda s: (renyi_tilde(p, s) - s * r) / (1.0 + s)
    s_star, val = maximize_over_rates(fn, 0.0, 1.0, r)
    return ExponentResult(value=val, argmax=s_star, method="grid+golden[0,1]")


def critical_rate(p: SubDist) -> float:
    """2 H'_2 - H_2: below this rate the s-restricted exponent loses tightness."""
    if not p.is_probability():
        raise ValueError("critical rate requires a probability distribution")
    return 2.0 * renyi_tilde_derivative(p, 1.0) - renyi_tilde(p, 1.0)


def _bisect_entropy(family, r: float, hi: float) -> float:
    """The t in [0, hi] with H(family(t)) = r, for entropy nonincreasing in t."""
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shannon_entropy(family(mid)) > r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _tilted_witness(p: SubDist, r: float) -> tuple[float, SubDist] | None:
    """Find s >= 0 with H(tilt(p, s)) = r by bisection; None if unreachable
    below TILT_CAP.

    The entropy of the tilted family is nonincreasing in s, so bisection is
    valid whenever the target is bracketed.
    """
    if shannon_entropy(tilt(p, 0.0)) <= r:
        return 0.0, tilt(p, 0.0)
    hi = 1.0
    while shannon_entropy(tilt(p, hi)) > r:
        if hi >= TILT_CAP:
            return None
        hi = min(2.0 * hi, TILT_CAP)
    s = _bisect_entropy(lambda t: tilt(p, t), r, hi)
    return s, tilt(p, s)


def _top_atom_witness(p: SubDist, r: float) -> SubDist:
    """Mix the point mass at the first largest atom into tilt(p, TILT_CAP)
    until the entropy falls to r.

    Along the mixture the entropy is concave, zero at the point mass, and
    has slope -H(T) - log max T <= 0 at the tilt T, so it decreases and the
    weight can be bisected.  D(Q||P) exceeds the lower bound -log max P - r
    by sum Q(a) log(max P / P(a)) <= (|A| - 1) / (e (1 + TILT_CAP)), and by
    nothing when the atoms T keeps tie.
    """
    top = np.zeros(p.alphabet.size)
    top[int(np.argmax(p.mass))] = 1.0
    flat = tilt(p, TILT_CAP).mass
    mix = lambda w: SubDist(p.alphabet, w * top + (1.0 - w) * flat)
    return mix(_bisect_entropy(mix, r, 1.0))


def _projected_divergence_search(p: SubDist, r: float) -> tuple[float, SubDist] | None:
    """Constrained minimization of D(Q||P) s.t. H(Q) <= R from
    DIVERGENCE_RESTARTS random starts.

    A test oracle for `divergence_exponent`, which never calls it; it is the
    only user of scipy.
    """
    from scipy import optimize

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
    for _ in range(DIVERGENCE_RESTARTS):
        x0 = rng.dirichlet(np.ones(k))
        res = optimize.minimize(
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
    """min over Q with H(Q) <= R of D(Q||P), solved exactly.

    The minimizer is the member of the tilted family P^(1+s)/Z with entropy
    R: for any feasible Q, D(Q||P) - D(Q_s||P) = [s(R - H(Q)) + D(Q||Q_s)] /
    (1+s) >= 0.  When the tilt cannot reach R by TILT_CAP (R below the log
    of the number of tied largest atoms), mixing a point mass into the tilt
    meets the bound -log max P - R (`top-atoms`; exact under exact ties).
    """
    _require_inputs(r, p)
    if r > math.log(p.alphabet.size) + 1e-12:
        raise ValueError("rate must lie in [0, log |alphabet|]")
    if shannon_entropy(p) <= r + 1e-13:
        return ExponentResult(
            value=0.0, argmax=0.0, method="feasible-at-P", witness=p
        )
    path = _tilted_witness(p, r)
    if path is not None:
        s, q = path
        return ExponentResult(
            value=kl_divergence(q, p), argmax=s, method="tilted-path", witness=q
        )
    q = _top_atom_witness(p, r)
    return ExponentResult(
        value=kl_divergence(q, p), argmax=None, method="top-atoms", witness=q
    )


def cramer_exponent(p: SubDist, r: float) -> ExponentResult:
    """max over s >= 0 of H~_(1+s) - s R': the large-deviation rate of the
    heavy-atom probability P^n{P^n(a) > e^(-nR')}, searched up to
    s = CRAMER_S_CAP (a maximizer there is noted).

    Returns 0 when R' is at least the Shannon entropy, and flags divergence
    when R' is below -log(max atom), where the objective grows without bound
    (e.g. every rate below log M for a uniform source).
    """
    _require_inputs(r, p)
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
    res = _cramer_search(p, r, CRAMER_S_CAP)
    if CRAMER_S_CAP - res.argmax < 1e-6:
        return res._replace(note=f"maximizer at search cap s = {CRAMER_S_CAP}")
    return res


def cramer_exponent_restricted(p: SubDist, r) -> ExponentResult:
    """The same objective restricted to s in [0, 1]; matches the unrestricted
    maximum whenever H'_2 <= R' <= H(A).  For a 1-D array of rates, `value`
    and `argmax` are arrays, one entry per rate."""
    _require_inputs(r)
    return _cramer_search(p, r, 1.0)


def _cramer_search(p: SubDist, r, s_cap: float) -> ExponentResult:
    """max over s in [0, s_cap] of H~_(1+s) - s R', at a rate or an array of rates."""
    fn = lambda s: renyi_tilde(p, s) - s * r
    s_star, val = maximize_over_rates(fn, 0.0, s_cap, r)
    return ExponentResult(value=val, argmax=s_star, method=f"grid+golden[0,{s_cap:g}]")


# ---------------------------------------------------------------------------
# Holenstein-Renner comparison exponents
# ---------------------------------------------------------------------------


class HRExponents(NamedTuple):
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
    _require_inputs(r, p)
    size = p.alphabet.size
    gap = shannon_entropy(p) - r
    ln2 = math.log(2.0)
    lower_ok = -1e-12 <= gap <= math.log(size) + 1e-12
    lower = ln2 * gap * gap / (2.0 * math.log(size + 3) ** 2) if lower_ok else None
    c, log_k = (12.0, math.log(size - 1)) if size >= 3 else (24.0, math.log(3.0))
    upper_ok = -1e-12 <= gap <= log_k / c + 1e-12
    upper = c * ln2 * gap * gap / (log_k**2) if upper_ok else None
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


def phi_cond(j: JointDist, t):
    """log sum_e P(e) (sum_a P(a|e)^(1/(1-t)))^(1-t), defined for t < 1.

    phi(0) = 0 and the derivative at 0 is -H(A|E).  Negative t is allowed;
    it appears in the decoding-error bounds.  t may be an array of orders.
    """
    if (np.asarray(t) >= 1.0).any():
        raise ValueError("t must be < 1")
    pe, cond = j.given_e()

    def terms(t):
        inner = (cond ** (1.0 / (1.0 - t))[:, None, None]).sum(axis=1)
        return pe * inner ** (1.0 - t)[:, None]

    return log_fsum_by_order(t, terms, cond.size)


def cond_renyi_tilde(j: JointDist, s):
    """-log sum_(a,e) P(e) P(a|e)^(1+s); its s -> 0 slope recovers H(A|E).
    s may be an array of orders."""
    if (np.asarray(s) <= -1.0).any():
        raise ValueError("order parameter must satisfy s > -1")
    pe, cond = j.given_e()
    terms = lambda s: pe * (cond ** (1.0 + s)[:, None, None]).sum(axis=1)
    return -log_fsum_by_order(s, terms, cond.size)


def conditional_hash_d1_bound_at(j: JointDist, m: int, t: float) -> float:
    """3 M^t e^(phi(t)): the side-information hashing bound at parameter t."""
    if not 0.0 <= t <= 0.5:
        raise ValueError("t must be in [0, 1/2]")
    return 3.0 * m**t * math.exp(phi_cond(j, t))


def conditional_exponent_phi(j: JointDist, r: float) -> ExponentResult:
    """max over t in [0, 1/2] of -phi(t) - t R."""
    _require_inputs(r)
    fn = lambda t: -phi_cond(j, t) - t * r
    t_star, val = maximize_on_interval(fn, 0.0, 0.5)
    return ExponentResult(value=val, argmax=t_star, method="grid+golden[0,1/2]")


def conditional_exponent_pinsker(j: JointDist, r: float) -> ExponentResult:
    """max over s in [0, 1] of (H~_(1+s)(A|E) - s R)/2: the mutual-information
    route through Pinsker's inequality; never beats the phi form below H(A|E)."""
    _require_inputs(r)
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
    idx = np.arange(n)
    diff = module.sub_table() if module is not None else (idx[:, None] - idx[None, :]) % n
    return JointDist(p.alphabet, pe.alphabet, pe.mass[None, :] * p.mass[diff])
