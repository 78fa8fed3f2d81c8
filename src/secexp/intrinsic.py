"""Source-specialized uniform random number generation.

A specialized map squeezes a known i.i.d. source into {1, .., M} by grouping
length-n strings into empirical types: types heavy enough that a single
string already exceeds 1/M get injective treatment, mid-weight types get a
balanced block of floor(M * P^n(type)) cells, and everything else is dumped
into cell 1.  The map is built and evaluated type by type, in exact integers,
never string by string, so binary n reaches the thousands.  The module also
provides the heavy-mass floor that no map can beat, the specialized exponent,
and the constrained-minimization identity that backs it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dists import (
    Alphabet,
    InvariantError,
    SubDist,
    compositions,
    count_text,
    fsum,
    renyi_tilde,
    renyi_tilde_derivative,
    require_work,
    strings_by_type,
)
from .exponents import ExponentResult, cramer_exponent, cramer_exponent_restricted

__all__ = [
    "SpecializedMap",
    "TypeRecord",
    "MAX_N",
    "MAX_RECORD_BYTES",
    "heavy_mass_lower_bound",
    "build_specialized",
    "specialized_map_d1",
    "specialized_d1_bound",
    "specialized_exponent",
    "check_specialized_identity",
    "IdentityReport",
]

# Caps on the type-level construction: one record per type, about 256 bytes
# plus an exact string mass of n log2(d) bits (d: the common denominator of the
# source).  Time grows with their size: a binary source of 53-bit floats takes
# 0.4 s at n = 1,000 and 3 s at n = 2,000 (27 MB of records, 2-core machine).
MAX_N = 10_000
MAX_RECORD_BYTES = 1 << 25


def heavy_mass_lower_bound(p: SubDist, m: int) -> float:
    """P{P(a) >= 2/M}: no map into {1..M} gets the output closer to uniform.

    (The mass of atoms at least twice the uniform cell weight must surface in
    the L1 distance of any pushforward.)
    """
    if not p.is_probability() or m < 1:
        raise ValueError("requires a probability distribution and M >= 1")
    heavy = p.mass >= 2.0 / m
    return fsum(p.mass[heavy])


def _normalized(p: SubDist) -> tuple[tuple[int, ...], int]:
    """Integer weights a and denominator d with a_i / d = P(i) / total exactly.

    Float denominators are powers of two, so the largest is a common one; the
    weights are the masses over it in lowest terms, and d is their sum."""
    ratios = [x.as_integer_ratio() for x in p.mass.tolist()]
    top = max(den for _, den in ratios)
    scaled = [num * (top // den) for num, den in ratios]
    g = math.gcd(*scaled)
    weights = tuple(a // g for a in scaled)
    return weights, sum(weights)


class TypeRecord(NamedTuple):
    """A type of class_size strings, each of mass weight / denom^n."""

    counts: tuple[int, ...]
    category: str  # "T1" | "T2" | "T3"
    class_size: int
    n_cells: int
    weight: int


@dataclass(frozen=True)
class SpecializedMap:
    """A map from length-n strings to {1..M}, one record per type; the source
    is held exactly, as integer weights over `denom`."""

    n: int
    m: int
    base_symbols: tuple[str, ...]
    weights: tuple[int, ...]
    denom: int
    records: tuple[TypeRecord, ...]

    def partition_summary(self) -> dict:
        return {c: sum(r.category == c for r in self.records) for c in ("T1", "T2", "T3")}

    def cells_assigned(self) -> int:
        """Distinct cells consumed by the injective and balanced groups."""
        return sum(rec.n_cells for rec in self.records)

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """Cell index (1..M) per extended-alphabet string, built on request
        under the string cap of `strings_by_type`."""
        cells, next_cell = np.ones(len(self.base_symbols) ** self.n, dtype=np.int64), 1
        groups = strings_by_type(Alphabet(self.base_symbols), self.n)
        for rec, (_, idxs) in zip(self.records, groups):
            if rec.n_cells:  # round-robin; T3 strings stay in cell 1
                cells[idxs] = next_cell + np.arange(len(idxs)) % rec.n_cells
                next_cell += rec.n_cells
        cells.setflags(write=False)
        return cells

    def heavy_mass_floor(self) -> float:
        """heavy_mass_lower_bound of p^n, P^n{P^n(a) >= 2/M}, from the types."""
        scale = self.denom**self.n
        heavy = sum(
            r.class_size * r.weight
            for r in self.records
            if r.category == "T1" and self.m * r.weight >= 2 * scale
        )
        return heavy / scale

    def d1_bound(self) -> dict:
        """`specialized_d1_bound` from the types; the middle sum in log space."""
        scale = self.denom**self.n
        heavy = sum(r.class_size * r.weight for r in self.records if r.category == "T1")
        log_scale = math.log(scale)
        logs = [
            math.log(self.m * r.class_size) + 2.0 * (math.log(r.weight) - log_scale)
            for r in self.records
            if r.weight
        ]
        try:
            middle = fsum([math.exp(v) for v in logs])
        except OverflowError:
            middle = math.inf
        out = {"heavy_mass": heavy / scale, "middle_sum": middle}
        out["type_count_term"] = len(self.records) / self.m
        return {**out, "bound": 2.0 * sum(out.values())}


def build_specialized(p: SubDist, n: int, m: int) -> SpecializedMap:
    """Construct the canonical type-grouped map for p^n into {1..M}.

    Classification is exact: the float masses are divided by their exact
    rational total (0.2 + 0.8 is 1 + 2^-54 as floats, which would break the
    cell budget at large n), and types are compared in integers.  Cells are
    assigned in ascending order over types in lexicographic order: injective
    types take one fresh cell per string; balanced types take
    n_Q = floor(M * P^n(T)) fresh cells filled round-robin, which keeps their
    preimage sizes within one of each other; residual types share cell 1.
    """
    if not p.is_probability() or m < 1 or n < 1:
        raise ValueError("requires a probability distribution, n >= 1 and M >= 1")
    require_work(n, "trials (n)", MAX_N)
    weights, denom = _normalized(p)
    n_types, bits = math.comb(n + len(weights) - 1, n), n * denom.bit_length()
    what = f"record bytes ({count_text(n_types)} types of {bits}-bit string masses)"
    require_work(n_types * (256 + bits // 8), what, MAX_RECORD_BYTES)
    scale, records, last = denom**n, [], None
    a, b = weights[-2:] if len(weights) > 1 else (0, 0)
    for counts in compositions(n, len(weights)):
        # weight prod a_i^c_i and class size n!/prod c_i!; where only the last
        # two counts move, a short multiply and an exact divide replace powers
        if b and last and counts[:-2] == last[:-2]:
            weight, size = weight * a // b, size * last[-1] // counts[-2]
        else:
            weight = math.prod(x**c for x, c in zip(weights, counts))
            size = math.prod(map(math.comb, itertools.accumulate(counts), counts))
        last = counts
        if m * weight >= scale:  # one string already weighs at least 1/M
            records.append(TypeRecord(counts, "T1", size, size, weight))
        else:
            n_q = m * size * weight // scale
            records.append(TypeRecord(counts, "T2" if n_q else "T3", size, n_q, weight))
    smap = SpecializedMap(n, m, p.alphabet.symbols, weights, denom, tuple(records))
    if smap.cells_assigned() > m:
        # the counting argument guarantees this never triggers
        raise InvariantError(
            f"specialized-map cell budget exceeded: {smap.cells_assigned()} > {m}"
        )
    return smap


def specialized_map_d1(p: SubDist, smap: SpecializedMap) -> float:
    """Exact distance from uniform of p^n pushed through the map, summed over
    the types in integers scaled by M denom^n.

    A T1 type fills |T| cells of one string; a T2 type with |T| = a n_Q + r
    fills r cells of a + 1 strings and n_Q - r of a; cell 1 also takes every
    T3 string; each unused cell adds 1/M.
    """
    if _normalized(p) != (smap.weights, smap.denom):
        raise ValueError("the map was built for another source")
    unit, groups = smap.denom**smap.n, []  # 1/M scaled; (cells, scaled mass of each)
    for rec in smap.records:
        if rec.n_cells:
            a, r = divmod(rec.class_size, rec.n_cells)
            low = a * smap.m * rec.weight
            groups += [(r, low + smap.m * rec.weight), (rec.n_cells - r, low)]
    t3 = smap.m * sum(rec.class_size * rec.weight for rec in smap.records if not rec.n_cells)
    groups = [g for g in groups if g[0]] or [(1, 0)]
    groups[0:1] = [(1, groups[0][1] + t3), (groups[0][0] - 1, groups[0][1])]
    unused = smap.m - sum(count for count, _ in groups)
    total = sum(count * abs(mass - unit) for count, mass in groups) + unused * unit
    return total / (smap.m * unit)


def specialized_d1_bound(p: SubDist, n: int, m: int) -> dict:
    """The three-term guarantee for the canonical construction.

    2 P^n{P^n(a) >= 1/M}  +  2 sum_T M P^n(T) e^(-n(D+H))  +  2 |T_n| / M,
    where the middle sum ranges over all types and e^(-n(D+H)) is the
    per-string probability of the type.
    """
    return build_specialized(p, n, m).d1_bound()


def specialized_exponent(p: SubDist, r: float) -> ExponentResult:
    """max over s in [0,1] of H~_(1+s) - s R: the specialized-map decay rate.

    The value is authoritative only when H~'_2 <= R; outside that window it
    is still reported, flagged via `note`.
    """
    if not p.is_probability():
        raise ValueError("requires a probability distribution")
    res = cramer_exponent_restricted(p, r)
    if renyi_tilde_derivative(p, 1.0) > r:
        res = res._replace(note="hypothesis unmet: H~'_2 > R, value not authoritative")
    return res


# ---------------------------------------------------------------------------
# Constrained-minimization identity
# ---------------------------------------------------------------------------


class IdentityReport(NamedTuple):
    branch: str  # "slope<=R" or "slope>R"
    lhs: float
    rhs_restricted: float
    rhs_unrestricted: float | None
    order2_value: float | None
    max_discrepancy: float


def _objective_grid(q_cols: list[np.ndarray], p: SubDist, r: float) -> np.ndarray:
    """2 * crossent(Q, P) - H(Q) - R over a batch of candidate Q columns;
    infeasible points (crossent < R) come back as +inf."""
    log_p = np.where(p.mass > 0.0, np.log(np.where(p.mass > 0.0, p.mass, 1.0)), -np.inf)
    cross, ent = np.zeros_like(q_cols[0]), np.zeros_like(q_cols[0])
    for qc, lp in zip(q_cols, log_p):
        with np.errstate(divide="ignore", invalid="ignore"):
            cross -= np.where(qc > 0.0, qc * lp, 0.0)
            ent -= np.where(qc > 0.0, qc * np.log(qc), 0.0)
    vals = 2.0 * cross - ent - r
    vals[(cross < r - 1e-13) | np.isnan(vals)] = math.inf
    return vals


def _constrained_min(p: SubDist, r: float) -> float:
    """Nested-grid minimum over the simplex of 2 or 3 symbols: six rounds,
    each zoomed in around the best point so far."""
    num, margin = (4001, 10) if p.alphabet.size == 2 else (161, 8)
    lo, hi = np.zeros(p.alphabet.size - 1), np.ones(p.alphabet.size - 1)
    best, best_v = lo, math.inf
    for _ in range(6):
        grids = np.meshgrid(*(np.linspace(a, b, num) for a, b in zip(lo, hi)), indexing="ij")
        free = [g.ravel() for g in grids]
        last = functools.reduce(np.subtract, free, 1.0)
        vals = _objective_grid(free + [np.clip(last, 0.0, None)], p, r)
        vals[last < 0.0] = math.inf
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best = float(vals[i]), np.array([q[i] for q in free])
        step = (hi - lo) / (num - 1)
        lo, hi = np.maximum(0.0, best - margin * step), np.minimum(1.0, best + margin * step)
    return best_v


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
    if p.alphabet.size not in (2, 3):
        raise ValueError("identity check is grid-tractable only for 2-3 symbols")
    lhs = _constrained_min(p, r)
    rhs_restricted = cramer_exponent_restricted(p, r).value
    slope_ok = renyi_tilde_derivative(p, 1.0) <= r
    other = cramer_exponent(p, r).value if slope_ok else renyi_tilde(p, 1.0) - r
    return IdentityReport(
        branch="slope<=R" if slope_ok else "slope>R",
        lhs=lhs,
        rhs_restricted=rhs_restricted,
        rhs_unrestricted=other if slope_ok else None,
        order2_value=None if slope_ok else other,
        max_discrepancy=max(abs(lhs - rhs_restricted), abs(lhs - other)),
    )
