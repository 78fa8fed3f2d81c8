"""Source-specialized uniform random number generation.

A specialized map squeezes a known i.i.d. source into {1, .., M} by grouping
length-n strings into empirical types: types heavy enough that a single
string already exceeds 1/M get injective treatment, mid-weight types get a
balanced block of floor(M * P^n(type)) cells, and everything else is dumped
into cell 1.  The module also provides the heavy-mass floor that no map can
beat, the specialized exponent, and the constrained-minimization identity
that backs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dists import (
    SubDist,
    d1_uniformity,
    enumerate_types,
    iid_extend,
    renyi_tilde,
    renyi_tilde_derivative,
    strings_by_type,
)
from .exponents import ExponentResult, cramer_exponent, cramer_exponent_restricted
from .privacy import pushforward

__all__ = [
    "SpecializedMap",
    "TypeRecord",
    "heavy_mass_lower_bound",
    "build_specialized",
    "specialized_map_d1",
    "specialized_d1_bound",
    "specialized_exponent",
    "check_specialized_identity",
    "IdentityReport",
]


def heavy_mass_lower_bound(p: SubDist, m: int) -> float:
    """P{P(a) >= 2/M}: no map into {1..M} gets the output closer to uniform.

    (The mass of atoms at least twice the uniform cell weight must surface in
    the L1 distance of any pushforward.)
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("requires a probability distribution")
    if m < 1:
        raise ValueError("output size must be >= 1")
    heavy = p.mass >= 2.0 / m
    return float(math.fsum(p.mass[heavy].tolist()))


@dataclass(frozen=True)
class TypeRecord:
    counts: tuple[int, ...]
    category: str  # "T1" | "T2" | "T3"
    class_size: int
    n_cells: int
    prob: float


@dataclass(frozen=True)
class SpecializedMap:
    """A concrete map from length-n strings to {1..M}, grouped by type."""

    n: int
    m: int
    base_symbols: tuple[str, ...]
    cells: np.ndarray  # cell index (1..M) per extended-alphabet string
    records: tuple[TypeRecord, ...]

    def partition_summary(self) -> dict:
        out = {"T1": 0, "T2": 0, "T3": 0}
        for rec in self.records:
            out[rec.category] += 1
        return out

    def cells_assigned(self) -> int:
        """Distinct cells consumed by the injective and balanced groups."""
        return sum(
            rec.class_size if rec.category == "T1" else rec.n_cells
            for rec in self.records
            if rec.category in ("T1", "T2")
        )


def build_specialized(p: SubDist, n: int, m: int) -> SpecializedMap:
    """Construct the canonical type-grouped map for p^n into {1..M}.

    Classification is exact (rational arithmetic on the dyadic float masses),
    so boundary types land deterministically.  Cells are assigned in
    ascending order over types in lexicographic order: injective types take
    one fresh cell per string; balanced types take n_Q = floor(M * P^n(T))
    fresh cells filled round-robin, which keeps their preimage sizes within
    one of each other; residual types share cell 1.
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("requires a probability distribution")
    if m < 1:
        raise ValueError("output size must be >= 1")
    groups = strings_by_type(p.alphabet, n)
    size_ext = p.alphabet.size**n
    cells = np.ones(size_ext, dtype=np.int64)
    records: list[TypeRecord] = []
    threshold = Fraction(1, m)
    next_cell = 1
    for tc, idxs in groups:
        p_single = tc.exact_prob_single(p)
        p_type = tc.multiplicity() * p_single
        n_q = int(m * p_type)  # floor, exact
        if p_single >= threshold:
            for j, idx in enumerate(idxs):
                cells[idx] = next_cell + j
            used = len(idxs)
            next_cell += used
            records.append(
                TypeRecord(tc.counts, "T1", len(idxs), used, float(p_type))
            )
        elif n_q >= 1:
            for j, idx in enumerate(idxs):
                cells[idx] = next_cell + (j % n_q)
            next_cell += n_q
            records.append(
                TypeRecord(tc.counts, "T2", len(idxs), n_q, float(p_type))
            )
        else:
            records.append(
                TypeRecord(tc.counts, "T3", len(idxs), 0, float(p_type))
            )
    if next_cell - 1 > m:
        # the counting argument guarantees this never triggers
        raise RuntimeError(
            f"cell budget exceeded: {next_cell - 1} > {m}; construction invariant broken"
        )
    cells.setflags(write=False)
    return SpecializedMap(
        n=n,
        m=m,
        base_symbols=p.alphabet.symbols,
        cells=cells,
        records=tuple(records),
    )


def specialized_map_d1(p: SubDist, smap: SpecializedMap) -> float:
    """Exact distance from uniform of p^n pushed through the map."""
    ext = iid_extend(p, smap.n)
    hashed = pushforward(ext, smap.cells, smap.m)
    return d1_uniformity(hashed)


def specialized_d1_bound(p: SubDist, n: int, m: int) -> dict:
    """The three-term guarantee for the canonical construction.

    2 P^n{P^n(a) >= 1/M}  +  2 sum_T M P^n(T) e^(-n(D+H))  +  2 |T_n| / M,
    where the middle sum ranges over all types and e^(-n(D+H)) is the
    per-string probability of the type.
    """
    types = enumerate_types(p.alphabet, n)
    threshold = Fraction(1, m)
    heavy = 0.0
    middle = 0.0
    for tc in types:
        p_single_frac = tc.exact_prob_single(p)
        p_single = tc.prob_single(p)
        p_type = tc.prob(p)
        if p_single_frac >= threshold:
            heavy += p_type
        middle += m * p_type * p_single
    tail = len(types) / m
    return {
        "heavy_mass": heavy,
        "middle_sum": middle,
        "type_count_term": tail,
        "bound": 2.0 * (heavy + middle + tail),
    }


def specialized_exponent(p: SubDist, r: float) -> ExponentResult:
    """max over s in [0,1] of H~_(1+s) - s R: the specialized-map decay rate.

    The value is authoritative only when H~'_2 <= R; outside that window it
    is still reported, flagged via `note`.
    """
    if abs(p.total - 1.0) > 1e-9:
        raise ValueError("requires a probability distribution")
    res = cramer_exponent_restricted(p, r)
    if renyi_tilde_derivative(p, 1.0) > r:
        res = replace(res, note="hypothesis unmet: H~'_2 > R, value not authoritative")
    return res


# ---------------------------------------------------------------------------
# Constrained-minimization identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    branch: str  # "slope<=R" or "slope>R"
    lhs: float
    rhs_restricted: float
    rhs_unrestricted: float | None
    order2_value: float | None
    max_discrepancy: float


def _plogp(q: np.ndarray) -> np.ndarray:
    out = np.zeros_like(q)
    pos = q > 0.0
    out[pos] = q[pos] * np.log(q[pos])
    return out


def _objective_grid(q_cols: list[np.ndarray], p: SubDist, r: float) -> np.ndarray:
    """2 * crossent(Q, P) - H(Q) - R over a batch of candidate Q columns;
    infeasible points (crossent < R) come back as +inf."""
    log_p = np.where(p.mass > 0.0, np.log(np.where(p.mass > 0.0, p.mass, 1.0)), -np.inf)
    cross = np.zeros_like(q_cols[0])
    ent = np.zeros_like(q_cols[0])
    for qc, lp in zip(q_cols, log_p):
        with np.errstate(invalid="ignore"):
            cross -= np.where(qc > 0.0, qc * lp, 0.0)
        ent -= _plogp(qc)
    vals = 2.0 * cross - ent - r
    vals[cross < r - 1e-13] = math.inf
    vals[np.isnan(vals)] = math.inf
    return vals


def _constrained_min_binary(p: SubDist, r: float) -> float:
    lo, hi, num = 0.0, 1.0, 4001
    best_x, best_v = 0.0, math.inf
    for _ in range(6):
        xs = np.linspace(lo, hi, num)
        vals = _objective_grid([xs, 1.0 - xs], p, r)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_x = float(vals[i]), float(xs[i])
        step = (hi - lo) / (num - 1)
        lo = max(0.0, best_x - 10 * step)
        hi = min(1.0, best_x + 10 * step)
    return best_v


def _constrained_min_ternary(p: SubDist, r: float) -> float:
    lo1, hi1, lo2, hi2 = 0.0, 1.0, 0.0, 1.0
    num = 161
    best = (0.0, 0.0, math.inf)
    for _ in range(6):
        xs = np.linspace(lo1, hi1, num)
        ys = np.linspace(lo2, hi2, num)
        g1, g2 = np.meshgrid(xs, ys, indexing="ij")
        q1, q2 = g1.ravel(), g2.ravel()
        q3 = 1.0 - q1 - q2
        vals = _objective_grid([q1, q2, np.clip(q3, 0.0, None)], p, r)
        vals[q3 < 0.0] = math.inf
        i = int(np.argmin(vals))
        if vals[i] < best[2]:
            best = (float(q1[i]), float(q2[i]), float(vals[i]))
        step1 = (hi1 - lo1) / (num - 1)
        step2 = (hi2 - lo2) / (num - 1)
        lo1 = max(0.0, best[0] - 8 * step1)
        hi1 = min(1.0, best[0] + 8 * step1)
        lo2 = max(0.0, best[1] - 8 * step2)
        hi2 = min(1.0, best[1] + 8 * step2)
    return best[2]


def check_specialized_identity(p: SubDist, r: float) -> IdentityReport:
    """Compare the constrained-minimization face of the specialized exponent
    against its max-over-s forms.

    LHS:  min over Q with H(Q) + D(Q||P) >= R  of  H(Q) + 2 D(Q||P) - R,
    computed by an independent nested-grid scan (the constraint is a
    half-space in Q because H + D is the cross entropy -sum Q log P, and the
    objective 2*(cross entropy) - H(Q) - R is convex).

    When H~'_2 <= R the LHS equals max over s >= 0 (equivalently s in [0,1])
    of H~_(1+s) - s R; otherwise it equals H~_2 - R, which also matches the
    s-restricted maximum.
    """
    if p.alphabet.size == 2:
        lhs = _constrained_min_binary(p, r)
    elif p.alphabet.size == 3:
        lhs = _constrained_min_ternary(p, r)
    else:
        raise ValueError("identity check is grid-tractable only for 2-3 symbols")
    rhs_restricted = cramer_exponent_restricted(p, r).value
    slope2 = renyi_tilde_derivative(p, 1.0)
    if slope2 <= r:
        rhs_unrestricted = cramer_exponent(p, r).value
        disc = max(
            abs(lhs - rhs_restricted), abs(lhs - rhs_unrestricted)
        )
        return IdentityReport(
            branch="slope<=R",
            lhs=lhs,
            rhs_restricted=rhs_restricted,
            rhs_unrestricted=rhs_unrestricted,
            order2_value=None,
            max_discrepancy=disc,
        )
    order2 = renyi_tilde(p, 1.0) - r
    disc = max(abs(lhs - rhs_restricted), abs(lhs - order2))
    return IdentityReport(
        branch="slope>R",
        lhs=lhs,
        rhs_restricted=rhs_restricted,
        rhs_unrestricted=None,
        order2_value=order2,
        max_discrepancy=disc,
    )
