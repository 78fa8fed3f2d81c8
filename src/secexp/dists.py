"""Exact arithmetic on finite distributions.

Distances, Renyi-type entropies, divergences, tilting, smoothing by atom
truncation, i.i.d. extension, and enumeration of empirical types.  All
logarithms are natural (nats).  A "sub-distribution" is a nonnegative mass
vector whose total may be anything in [0, 1]; several bounds in this package
are stated for sub-distributions, so totals below 1 are first-class here.
Every constructor checks its mass array by `masses`, and whether a total is 1
has one test, `SubDist.is_probability`.

Conventions: 0 * log 0 = 0, and p^(1+s) = 0 at p = 0 for every s > -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alphabet",
    "SubDist",
    "JointDist",
    "TypeClass",
    "AlphabetMismatchError",
    "SizeLimitError",
    "InvariantError",
    "masses",
    "require_work",
    "capped_power",
    "count_text",
    "blocks",
    "compositions",
    "range_alphabet",
    "product_alphabet",
    "fsum",
    "fsum_rows",
    "fsum_groups",
    "grid_argmax",
    "l1_distance",
    "d1_uniformity",
    "l2_distance",
    "shannon_entropy",
    "renyi_tilde",
    "renyi",
    "renyi_tilde_derivative",
    "kl_divergence",
    "tilt",
    "smooth_truncate",
    "kron_power",
    "iid_extend",
    "conditional_shannon_entropy",
    "enumerate_types",
    "strings_by_type",
    "DEFAULT_MAX_CELLS",
    "BLOCK_CELLS",
]

DEFAULT_MAX_CELLS = 1 << 20
# Cell budget of one block of every sweep (see `blocks`).
BLOCK_CELLS = 1 << 19

# Rounding slack of a mass entry below 0 and of a constructor's sum rule.
_MASS_SLACK = 1e-12
_PROBABILITY_SLACK = 1e-9  # of a total from 1, for `SubDist.is_probability`


class AlphabetMismatchError(ValueError):
    """Two distributions live on different alphabets."""


class SizeLimitError(ValueError):
    """A size read from outside, or the cells an operation would materialize,
    exceeds the configured cap."""


class InvariantError(RuntimeError):
    """A guarantee the mathematics proves, found broken at run time; the
    message names it."""


def count_text(n: int) -> str:
    """A count for a message: its digits below 10^100, else "about 10^D",
    since Python refuses to print an int of more than 4,300 digits."""
    n = int(n)
    return str(n) if n < 10**100 else f"about 10^{round(math.log10(n))}"


def require_work(units: int, what: str, cap: int = DEFAULT_MAX_CELLS):
    """Refuse `units` of work or cells past `cap` before any is done: with
    `capped_power`'s walk, the one form of every size refusal."""
    if units > cap:
        raise SizeLimitError(f"{count_text(units)} {what} exceed cap {cap}")


def capped_power(base: int, n: int, what: str, cap: int = DEFAULT_MAX_CELLS) -> int:
    """base**n, refused with SizeLimitError at the first partial product over
    cap: never more than log2(cap) + 1 multiplications, however large n is."""
    if base <= 1:
        return base**n
    value = 1
    for done in range(1, n + 1):
        value *= base
        if value > cap:
            count = count_text(value) if done == n else f"{base}^{n}"
            raise SizeLimitError(f"{count} {what} exceed cap {cap}")
    return value


def blocks(count: int, cells: int):
    """The slices of range(count) in order, each of at most BLOCK_CELLS //
    cells items (at least one): how every sweep of `cells` cells per item
    cuts its work."""
    step = max(1, BLOCK_CELLS // cells)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @classmethod
    def _distinct(cls, symbols: tuple[str, ...]) -> "Alphabet":
        """An alphabet of symbols known to be distinct and nonempty by
        construction, built without the distinctness set."""
        alphabet = object.__new__(cls)
        object.__setattr__(alphabet, "symbols", symbols)
        return alphabet

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        """Position of `symbol`; the lookup table is built on the first call."""
        table = self.__dict__.get("_index")
        if table is None:
            table = {s: i for i, s in enumerate(self.symbols)}
            object.__setattr__(self, "_index", table)
        try:
            return table[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None


def range_alphabet(m: int) -> Alphabet:
    """The output alphabet {1, ..., m} with string labels."""
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    require_work(m, "alphabet symbols")
    return Alphabet(tuple(str(i) for i in range(1, m + 1)))


def product_alphabet(alphabet: Alphabet, n: int) -> Alphabet:
    """n-fold product alphabet; labels are concatenations of the factors.

    Joined by "" when every factor label is one character and by "|"
    otherwise.  When no factor label contains the separator, distinct
    tuples give distinct labels, so only labels that do are checked."""
    sep = "" if all(len(s) == 1 for s in alphabet.symbols) else "|"
    symbols = tuple(map(sep.join, itertools.product(alphabet.symbols, repeat=n)))
    if sep and any(sep in s for s in alphabet.symbols):
        return Alphabet(symbols)
    return Alphabet._distinct(symbols)


def masses(values, shape: tuple, what: str) -> np.ndarray:
    """`values` as a read-only float array of `shape`, finite and nonnegative
    (entries in [-_MASS_SLACK, 0) become 0); `what` names it in a refusal."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    if arr.min(initial=0.0) < -_MASS_SLACK:
        raise ValueError(f"{what} has a negative entry")
    np.clip(arr, 0.0, None, out=arr)
    arr.setflags(write=False)
    return arr


def _total(arr: np.ndarray) -> float:
    """fsum of finite masses, or inf where it overflows: a total above 1."""
    try:
        return fsum(arr)
    except OverflowError:
        return math.inf


class SubDist:
    """A nonnegative mass vector over an alphabet, total mass at most 1."""

    __slots__ = ("alphabet", "mass", "total")

    def __init__(self, alphabet: Alphabet, mass):
        arr = masses(mass, (alphabet.size,), "mass")
        total = _total(arr)
        if total > 1.0 + _MASS_SLACK:
            raise ValueError(f"total mass {total} exceeds 1")
        self.alphabet = alphabet
        self.mass = arr
        self.total = total

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "SubDist":
        n = alphabet.size
        return cls(alphabet, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, alphabet: Alphabet, symbol: str) -> "SubDist":
        mass = np.zeros(alphabet.size)
        mass[alphabet.index(symbol)] = 1.0
        return cls(alphabet, mass)

    @classmethod
    def bernoulli(cls, p: float) -> "SubDist":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return cls(Alphabet(("0", "1")), np.array([p, 1.0 - p]))

    def is_probability(self) -> bool:
        """Whether the total mass is 1, up to rounding."""
        return abs(self.total - 1.0) <= _PROBABILITY_SLACK

    def scaled_uniform(self) -> "SubDist":
        """The reference `total * uniform` that uniformity is measured against."""
        n = self.alphabet.size
        return SubDist(self.alphabet, np.full(n, self.total / n))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{s}:{m:.6g}" for s, m in zip(self.alphabet.symbols, self.mass)
        )
        return f"SubDist({pairs})"


class JointDist:
    """A joint probability distribution over (secret alphabet x side alphabet)."""

    __slots__ = ("alphabet_a", "alphabet_e", "mass", "_given_e")

    def __init__(self, alphabet_a: Alphabet, alphabet_e: Alphabet, mass):
        arr = masses(mass, (alphabet_a.size, alphabet_e.size), "joint mass")
        total = _total(arr)
        if abs(total - 1.0) > _MASS_SLACK:
            raise ValueError(f"joint mass sums to {total}, expected 1")
        self.alphabet_a = alphabet_a
        self.alphabet_e = alphabet_e
        self.mass = arr
        self._given_e = None

    @classmethod
    def independent(cls, pa: SubDist, pe: SubDist) -> "JointDist":
        return cls(pa.alphabet, pe.alphabet, np.outer(pa.mass, pe.mass))

    def marginal_a(self) -> SubDist:
        return SubDist(self.alphabet_a, self.mass.sum(axis=1))

    def marginal_e(self) -> SubDist:
        return SubDist(self.alphabet_e, self.mass.sum(axis=0))

    def given_e(self) -> tuple[np.ndarray, np.ndarray]:
        """(P(e), P(a|e)) over the e with P(e) > 0, built on the first call
        (the mass is read-only).  The column index leaves P(a|e)
        column-major, which fixes the digits of its sums."""
        if self._given_e is None:
            pe = self.mass.sum(axis=0)
            pos = pe > 0.0
            self._given_e = pe[pos], self.mass[:, pos] / pe[pos]
        return self._given_e


def _require_same_alphabet(p: SubDist, q: SubDist):
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {p.alphabet.symbols} vs {q.alphabet.symbols}"
        )


def l1_distance(p: SubDist, q: SubDist) -> float:
    """Sum of |P(x) - Q(x)| (the variational distance, unhalved)."""
    _require_same_alphabet(p, q)
    return fsum(np.abs(p.mass - q.mass))


def d1_uniformity(p: SubDist) -> float:
    """L1 distance from the total-mass-scaled uniform distribution."""
    return l1_distance(p, p.scaled_uniform())


def l2_distance(p: SubDist, q: SubDist) -> float:
    _require_same_alphabet(p, q)
    return math.sqrt(fsum((p.mass - q.mass) ** 2))


def shannon_entropy(p: SubDist) -> float:
    """-sum p log p in nats, with 0 log 0 = 0 (defined for sub-distributions)."""
    m = p.mass[p.mass > 0.0]
    return -fsum(m * np.log(m))


def fsum(x) -> float:
    """math.fsum(x) of the entries of an array or list, bit for bit: `fsum_rows`
    of them taken as one row."""
    return fsum_rows(np.asarray(x).reshape(1, -1))[0]


def fsum_rows(a) -> list[float]:
    """[math.fsum(row) for row in a.tolist()] of a 2-D array, bit for bit: by
    `_kernel_fsums` with one group per row, else one math.fsum per row."""
    a = np.asarray(a, dtype=float)
    sums = _kernel_fsums(a, None, len(a))
    return list(map(math.fsum, a.tolist())) if sums is None else sums


def fsum_groups(values, keys, groups: int) -> list[float]:
    """[math.fsum(values[keys == g]) for g in range(groups)], bit for bit, for
    integer keys in 0 .. groups - 1 shaped like the values: by `_kernel_fsums`,
    else by one math.fsum per group of the values sorted stably by key."""
    values = np.asarray(values, dtype=float).ravel()
    keys = np.asarray(keys).ravel()
    sums = _kernel_fsums(values, keys, groups)
    if sums is not None:
        return sums
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(groups + 1)).tolist()
    ordered = values[order].tolist()
    return [math.fsum(ordered[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _kernel_fsums(values: np.ndarray, keys, groups: int) -> list[float] | None:
    """math.fsum of the entries of each group, bit for bit, or None where the
    kernel does not apply.  `keys` (broadcast against the values) names each
    entry's group; None names its row of a 2-D array.

    The kernel applies when the groups average at least _KERNEL_MIN_ROW
    entries, fewer than _KERNEL_MAX_ENTRIES entries are summed, and every
    entry is finite and below 2^_KERNEL_MAX_EXP in magnitude.  Elsewhere
    math.fsum of each group gives the same bits, and its inf, nan, ValueError
    and OverflowError.  It sums by exponent bucket (Malcolm 1971) without a
    Python float per entry: each entry's 53-bit mantissa is split into
    integer halves of 27 and 26 bits, and one bincount per half adds them up
    per (group, binary exponent).  Each bucket total is an integer below
    2^53, so exact; scaled back by its exponent it stays exact, subnormals
    included.  math.fsum of a group's parts is then the correctly rounded
    group total, which is what math.fsum of the group itself returns.
    """
    if not (_KERNEL_MIN_ROW * groups <= values.size < _KERNEL_MAX_ENTRIES and np.isfinite(values).all()):
        return None
    # np.frexp of the values, the bucket index and the top mantissa halves
    # share one allocation.  glibc returns a freed block to the system unless
    # an earlier freed one was at least as large: as four allocations, they
    # were faulted in afresh on every block of a sweep (153,000 page faults,
    # half of `universal_hash_d1_bound` at 2^14 symbols); as one, the first
    # block's free keeps the pages for the rest.
    size, shape = values.size, values.shape
    scratch = np.empty(4 * size)
    mant, top = scratch[:size].reshape(shape), scratch[size : 2 * size].reshape(shape)
    bucket = scratch[2 * size : 3 * size].view(np.intp)[:size].reshape(shape)
    exp = scratch[3 * size :].view(np.intc)[:size].reshape(shape)
    np.frexp(values, out=(mant, exp))
    lo, hi = int(exp.min(initial=0)), int(exp.max(initial=0))
    if hi > _KERNEL_MAX_EXP:
        return None
    if keys is None:
        keys = np.arange(groups)[:, None]
    span = hi - lo + 1
    np.add(keys * span - lo, exp, out=bucket)
    mant *= 2.0**27
    np.floor(mant, out=top)
    mant -= top
    mant *= 2.0**26
    scale = np.arange(lo, hi + 1)
    parts = [
        np.ldexp(np.bincount(bucket.ravel(), half.ravel(), groups * span).reshape(groups, span), scale - shift)
        for half, shift in ((top, 27), (mant, 53))
    ]
    return list(map(math.fsum, np.concatenate(parts, axis=1).tolist()))


# Rows shorter than this cost less through math.fsum: at this length one row
# costs about the same either way, and blocks of more rows gain (measured
# crossover, see CHANGES.md).
_KERNEL_MIN_ROW = 1024
# While fewer entries than this are summed, no bucket holds 2^26 top halves
# of under 2^27 each, so every bucket total is an exact integer below 2^53.
_KERNEL_MAX_ENTRIES = 1 << 26
# Entries below 2^_KERNEL_MAX_EXP in magnitude overflow neither a bucket total
# (fewer than 2^26 terms of one binary exponent) nor a partial sum of math.fsum.
_KERNEL_MAX_EXP = 960


def log_fsum_by_order(s, terms, cells: int):
    """log math.fsum(terms(orders)[i]) per order in s, shaped like s (a float if scalar).

    `terms` maps a 1-D block of orders to a (block, n) array of summands,
    building at most `cells` cells per order; each row is summed by
    `fsum_rows`.  Blocks hold at most BLOCK_CELLS / 8 cells, or one order,
    which bounds the summands and the kernel's temporaries.

    Contract: the exact value F(o) = log sum of the terms is convex in the
    order o.  Every caller's is: a log-sum of exp-affine terms (`renyi_tilde`,
    `cond_renyi_tilde`, `psi_channel`), or of perspectives (1-t) h(1/(1-t))
    of convex log-sums h (`phi_cond`, `phi_channel`).  Under `grid_argmax`,
    a call on the grid's number of orders with at least _KERNEL_MIN_ROW
    cells sums one order in _SCREEN_STRIDE exactly and returns a side
    of the bracket `_convex_bracket` builds from them, widened by its
    derived rounding margin, instead of the exact values (see `_Screen`).
    """
    orders = np.asarray(s, dtype=float)
    flat = orders.reshape(-1)
    if _screen is not None and flat.size == _screen.points and cells >= _KERNEL_MIN_ROW:
        logs = _screen.serve(flat, terms, cells)
    else:
        logs = _log_fsums(flat, terms, cells)
    return float(logs[0]) if orders.ndim == 0 else logs.reshape(orders.shape)


def _log_fsums(orders: np.ndarray, terms, cells: int) -> np.ndarray:
    """The exact path of `log_fsum_by_order` on a 1-D array of orders."""
    sums = []
    for block in blocks(orders.size, 8 * cells):
        sums.extend(fsum_rows(terms(orders[block])))
    return np.array(list(map(math.log, sums)))


# The grid orders a screened kernel call sums exactly: one in this many.
_SCREEN_STRIDE = 16
# Below this lower bound a log-sum may hold summands that underflowed and
# were then raised to a power under 1, an error the bracket's margin does not
# cover; such grids are summed exactly.
_SCREEN_FLOOR = -300.0


def _convex_bracket(orders: np.ndarray, knots: np.ndarray, f: np.ndarray, cells: int):
    """(lower, upper) bounds on the exact-path logs at every order, from their
    values f at the knot indices (0, the stride's multiples, the last), for a
    log-sum F convex in the order; None if they cannot be trusted.

    The exact path's value G differs from F by at most delta.  A summand is
    a chain of a few correctly rounded or libm operations: an inner numpy sum
    of at most `cells` terms raised to an outer power of at most 2 (relative
    error 2 cells u, u = 2^-53), the rounding of each power's exponent
    (2u |e log x| <= 1490u while the power is nonzero), and a few ulps for
    the powers and products; fsum adds u and math.log 2u |F|.  So
    |G - F| <= 4.1 (cells + 1024) u + 2u |F|, which delta doubles.  Between
    knots a and b, F lies below its chord and above both neighbouring
    secants extended, so with those taken through the knots' G:
    G <= chord + 2 delta, and G >= secant - (2 + 2r) delta, where r is the
    distance from the secant's near knot over its span (the secant's ends
    move by delta each).  One more delta (times 1 + r) covers the rounding
    of the chord and secant arithmetic.  Orders that are not strictly
    monotone, values that are not finite, fewer than three knots, or a lower
    bound under _SCREEN_FLOOR (where summands may have underflowed) give None.
    """
    steps = np.diff(orders)
    if len(knots) < 3 or not (np.isfinite(f).all() and ((steps > 0).all() or (steps < 0).all())):
        return None
    u = 2.0**-53
    delta = 8.0 * (cells + 1024) * u + 16.0 * u * float(np.abs(f).max())
    x = orders[knots]
    span = np.diff(x)
    slope = np.diff(f) / span
    last = len(knots) - 2
    seg = np.minimum(np.arange(orders.size) // (knots[1] - knots[0]), last)
    lead = orders - x[seg]  # from each point's segment start
    upper = f[seg] + slope[seg] * lead + 3.0 * delta
    prev, nxt = np.maximum(seg - 1, 0), np.minimum(seg + 1, last)
    trail = orders - x[nxt]  # from the next segment's start
    r_prev, r_next = np.abs(lead / span[prev]), np.abs(trail / span[nxt])
    from_prev = np.where(seg > 0, f[seg] + slope[prev] * lead - (3.0 + 3.0 * r_prev) * delta, -np.inf)
    from_next = np.where(seg < last, f[nxt] + slope[nxt] * trail - (3.0 + 3.0 * r_next) * delta, -np.inf)
    lower = np.maximum(from_prev, from_next)
    lower[knots], upper[knots] = f - 3.0 * delta, f + 3.0 * delta
    if not lower.min() >= _SCREEN_FLOOR:
        return None
    return lower, upper


class _Screen:
    """The state of one screened grid call of `grid_argmax`.

    The first kernel call on `points` orders of at least _KERNEL_MIN_ROW
    cells sums only the knots (every _SCREEN_STRIDE-th order and the last)
    exactly; if `_convex_bracket` holds there it keeps the bracket and
    returns its lower side, else it sums the other orders too and returns
    the exact values.  After `side` is set to 1 (and `calls` to 0) the
    first such call returns the upper side.  Every later one is summed
    exactly; `calls` counts them all, so `grid_argmax` can tell an
    objective that made more than one."""

    def __init__(self, points: int):
        self.points = points
        self.calls, self.side = 0, 0
        self.bracket = None

    def serve(self, orders: np.ndarray, terms, cells: int) -> np.ndarray:
        self.calls += 1
        if self.side == 1 and self.calls == 1:
            return self.bracket[1]
        if self.side == 1 or self.calls > 1:
            return _log_fsums(orders, terms, cells)
        is_knot = np.zeros(orders.size, dtype=bool)
        is_knot[::_SCREEN_STRIDE] = is_knot[-1] = True  # np.unique would import numpy.ma
        knots = np.flatnonzero(is_knot)
        at_knots = _log_fsums(orders[knots], terms, cells)
        bracket = _convex_bracket(orders, knots, at_knots, cells)
        if bracket is not None:
            self.bracket = bracket
            return bracket[0]
        logs = np.empty(orders.size)
        rest = np.flatnonzero(~is_knot)
        logs[knots], logs[rest] = at_knots, _log_fsums(orders[rest], terms, cells)
        return logs


_screen: _Screen | None = None


def grid_argmax(fn, grid: np.ndarray) -> np.ndarray:
    """Each row's first argmax of `fn` over the grid, the exhaustive grid's,
    from exact values at few points (`fn(grid)` is reshaped to (K, rows)).

    Under a `_Screen` the first call gets the lower side of the kernel's
    convexity bracket and the second its upper side.  Each objective is
    monotone in its one kernel value, so the two bracket every value of the
    exhaustive grid, and one array call evaluates the points whose bracket
    reaches their row's best lower end.  An objective with no screened
    kernel call gave the exhaustive grid already; one with more than one,
    or a value that is not finite, is evaluated on the whole grid again,
    after the outer screen is restored.
    """
    global _screen
    values = lambda orders: np.asarray(fn(orders), dtype=float).reshape(len(orders), -1)
    outer, _screen = _screen, (screen := _Screen(len(grid)))
    try:
        first = values(grid)
        if screen.bracket is None:
            return np.argmax(first, axis=0)
        if screen.calls == 1:
            screen.calls, screen.side = 0, 1
            second = values(grid)
    finally:
        _screen = outer
    if screen.calls != 1 or not np.isfinite([first, second]).all():
        return np.argmax(values(grid), axis=0)
    low, high = np.minimum(first, second), np.maximum(first, second)
    points = np.flatnonzero((high >= low.max(axis=0)).any(axis=1))
    return points[np.argmax(values(grid[points]), axis=0)]


def renyi_tilde(p: SubDist, s):
    """Unnormalized Renyi entropy -log sum_a P(a)^(1+s), in nats.

    Concave in s; the normalized order-(1+s) entropy is this divided by s,
    whose s -> 0 limit is the Shannon entropy.  s may be an array of orders.
    At an order where even the largest atom's power is below 2^-1022, so
    every summand is subnormal (few bits left) or 0, the largest atom is
    factored out: -(1+s) log max P - log sum (P / max P)^(1+s).
    """
    orders = np.asarray(s, dtype=float)
    if (orders <= -1.0).any():
        raise ValueError("order parameter must satisfy s > -1")
    m = p.mass[p.mass > 0.0]
    if m.size == 0:
        raise ValueError("empty support")
    terms = lambda o: m ** (1.0 + o)[:, None]
    peak = m.max()
    under = peak ** (1.0 + orders) < 2.0**-1022
    if not under.any():
        return -log_fsum_by_order(s, terms, m.size)
    ratios = m / peak
    out = np.empty(orders.shape)
    out[~under] = -log_fsum_by_order(orders[~under], terms, m.size)
    out[under] = -(1.0 + orders[under]) * math.log(peak) - log_fsum_by_order(
        orders[under], lambda o: ratios ** (1.0 + o)[:, None], m.size
    )
    return float(out) if orders.ndim == 0 else out


def renyi(p: SubDist, s: float) -> float:
    """Renyi entropy of order 1+s; the s = 0 case returns Shannon entropy."""
    if s == 0.0:
        return shannon_entropy(p)
    return renyi_tilde(p, s) / s


def renyi_tilde_derivative(p: SubDist, s: float) -> float:
    """d/ds of renyi_tilde: -(sum p^(1+s) log p) / (sum p^(1+s)); the largest
    atom is factored out of both sums where `renyi_tilde` factors it."""
    if s <= -1.0:
        raise ValueError("order parameter must satisfy s > -1")
    m = p.mass[p.mass > 0.0]
    if m.size == 0:
        raise ValueError("empty support")
    peak = m.max()
    w = (m / peak if peak ** (1.0 + s) < 2.0**-1022 else m) ** (1.0 + s)
    return -fsum(w * np.log(m)) / fsum(w)


def kl_divergence(q: SubDist, p: SubDist) -> float:
    """D(Q||P) = sum Q log(Q/P), +inf when Q is not absolutely continuous."""
    _require_same_alphabet(q, p)
    if not (q.is_probability() and p.is_probability()):
        raise ValueError("divergence requires probability distributions")
    qm, pm = q.mass, p.mass
    pos = qm > 0.0
    if np.any(pos & (pm <= 0.0)):
        return math.inf
    return fsum(qm[pos] * np.log(qm[pos] / pm[pos]))


def tilt(p: SubDist, s: float) -> SubDist:
    """Normalized tilted distribution P(a)^(1+s) / sum P(a')^(1+s).

    Computed on mass ratios against the largest atom, so large s cannot
    underflow the normalizer.
    """
    if s <= -1.0:
        raise ValueError("order parameter must satisfy s > -1")
    peak = float(p.mass.max())
    if peak <= 0.0:
        raise ValueError("empty support")
    ratios = np.where(p.mass > 0.0, p.mass / peak, 0.0)
    w = np.where(p.mass > 0.0, ratios ** (1.0 + s), 0.0)
    return SubDist(p.alphabet, w / fsum(w))


def smooth_truncate(p: SubDist, r: float) -> tuple[SubDist, float]:
    """Zero out the atoms above the threshold e^(-r).

    Returns the truncated sub-distribution (mass removed on the heavy set
    {P(x) > e^(-r)}) and the removed tail mass, which equals the L1 distance
    between the input and the output.
    """
    heavy = p.mass > math.exp(-r)
    kept = np.where(heavy, 0.0, p.mass)
    tail = fsum(p.mass[heavy])
    return SubDist(p.alphabet, kept), tail


def kron_power(a: np.ndarray, n: int, what: str) -> np.ndarray:
    """The n-fold Kronecker power a (x) ... (x) a, folded from the left, so
    indices are big-endian in the factors; refused beyond DEFAULT_MAX_CELLS
    cells (counted as `what`).  The one builder of every n-fold product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    capped_power(a.size, n, what)
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def iid_extend(p: SubDist, n: int) -> SubDist:
    """n-fold product distribution over the n-fold product alphabet."""
    mass = kron_power(p.mass, n, "cells")
    return SubDist(product_alphabet(p.alphabet, n), mass)


def conditional_shannon_entropy(j: JointDist) -> float:
    """H(A|E) = H(A,E) - H(E), in nats."""
    m = j.mass[j.mass > 0.0]
    return -fsum(m * np.log(m)) - shannon_entropy(j.marginal_e())


@dataclass(frozen=True)
class TypeClass:
    """An empirical type: per-symbol counts of a length-n string."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.alphabet.size:
            raise ValueError("counts length must match alphabet size")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) < 1:
            raise ValueError("type needs at least one trial")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def empirical(self) -> SubDist:
        n = self.n
        return SubDist(self.alphabet, np.array(self.counts, dtype=float) / n)

    def multiplicity(self) -> int:
        """Number of length-n strings with these symbol counts (exact integer)."""
        out = math.factorial(self.n)
        for c in self.counts:
            out //= math.factorial(c)
        return out

    def log_prob_single(self, p: SubDist) -> float:
        """log of the probability of any one string of this type under p^n."""
        acc = 0.0
        for c, mass in zip(self.counts, p.mass):
            if c == 0:
                continue
            if mass <= 0.0:
                return -math.inf
            acc += c * math.log(mass)
        return acc

    def prob_single(self, p: SubDist) -> float:
        return math.exp(self.log_prob_single(p))

    def prob(self, p: SubDist) -> float:
        """Probability of the whole type class under p^n."""
        return self.multiplicity() * self.prob_single(p)

    def exact_prob_single(self, p: SubDist) -> Fraction:
        """Per-string probability as an exact rational (floats are dyadic)."""
        from fractions import Fraction  # kept off the import path of the CLI

        acc = Fraction(1)
        for c, mass in zip(self.counts, p.mass):
            if c:
                acc *= Fraction(float(mass)) ** c
        return acc

    def exact_prob(self, p: SubDist) -> Fraction:
        return self.multiplicity() * self.exact_prob_single(p)


def compositions(total: int, parts: int):
    """All ways to write `total` as an ordered sum of `parts` nonnegative ints,
    in lexicographic order: the gaps between parts - 1 bars placed among
    total + parts - 1 slots, whose positions come in lexicographic order."""
    end = (total + parts - 1,)
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in itertools.pairwise((-1,) + bars + end))


def enumerate_types(alphabet: Alphabet, n: int) -> list[TypeClass]:
    """All empirical types of length-n strings, lexicographic in the counts;
    more than DEFAULT_MAX_CELLS counts in all are refused before any is built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size = alphabet.size
    types = math.comb(n + size - 1, n)
    require_work(types * size, f"type counts ({count_text(types)} types x {size} symbols)")
    return [TypeClass(alphabet, c) for c in compositions(n, size)]


def strings_by_type(alphabet: Alphabet, n: int) -> list[tuple[TypeClass, list[int]]]:
    """Group the indices of all length-n strings by their type.

    String indices follow the big-endian product order used by
    :func:`iid_extend`, i.e. index = sum_j a_j * size^(n-1-j).  Within each
    type the string indices are ascending.
    """
    size = alphabet.size
    capped_power(size, n, "strings")
    types = enumerate_types(alphabet, n)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx, word in enumerate(itertools.product(range(size), repeat=n)):
        counts = [0] * size
        for a in word:
            counts[a] += 1
        buckets.setdefault(tuple(counts), []).append(idx)
    return [(tc, buckets[tc.counts]) for tc in types]
