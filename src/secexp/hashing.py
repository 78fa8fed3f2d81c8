"""Universal and strongly-universal hash ensembles with exhaustive checkers.

A hash family maps an input alphabet to {1, ..., M} under a random seed: a
string of `seed_len` digits in digit_low .. digit_low + digit_base - 1, ranked
in itertools.product order.  A family defines only its digits and `maps_of`,
which turns a (count x seed_len) block of seeds into the (count x |alphabet|)
block of their maps; `HashFamily` derives `seeds(start, stop)`, `draw_seeds`
(a block of uniform seeds; one seed is `sample_seed`), `seed_blocks` (every
seed or a draw of seeds, in blocks cut by `dists.blocks`, refused past
ENUMERATION_LIMIT seeds or samples), `iter_maps` and `as_map`, and
`pushforward_blocks`, the images of a weight vector under every seed or a
draw of seeds, from the maps.

A linear family (`LinearFamily`) defines its digits and each seed's matrix A
over the prime field; its maps (x to A x) are combinations of A's columns,
and its pushforwards come by the character transform of the weights: one
transform of the weights, then per seed a gather of M values and one
transform of size M.  Those gathers, binned by (v, A^T v) and transformed over
both, give #{A : A d = y} (MacWilliams), `image_counts`, which both universality
checks read; `check_balanced` reads pushforwards of all-ones weights.  This is
the dual-code view of Tsurumaru and Hayashi, "Dual universality of hash
functions and its applications to quantum cryptography" (arXiv:1101.0064).

Three ensemble conditions are checkable by full seed enumeration:

  1. universal_2:           any fixed pair of distinct inputs collides with
                            probability at most 1/M over the seed;
  2. balanced:              every seed's map has equal-size preimages;
  3. strongly universal_2:  each single output is exactly uniform and any two
                            distinct inputs hash pairwise independently.

Seed sampling uses numpy's default PCG64 generator seeded from a
non-negative integer; the stream is stable across platforms and pinned by
test vectors in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dists import (
    Alphabet,
    blocks,
    capped_power,
    count_text,
    product_alphabet,
    require_work,
)
from .gf import Field, combination_indices, rank_digits

__all__ = [
    "HashFamily",
    "FullyRandomFamily",
    "LinearFamily",
    "ToeplitzFamily",
    "ExplicitFamily",
    "fit_toeplitz",
    "map_histograms",
    "Universal2Report",
    "BalancedReport",
    "StronglyUniversal2Report",
    "check_universal2",
    "check_balanced",
    "check_strongly_universal2",
    "ENUMERATION_LIMIT",
]

# Seeds of a sweep, or samples of a draw: the cap of `HashFamily.seed_blocks`.
ENUMERATION_LIMIT = 2_000_000
# Map cells (seeds x |alphabet|) of `iter_maps`, and one-hot map cells (tiles x
# seeds x |alphabet| x M) of `_pair_counts`, whose sweep stops near 20 s at
# 17 ns per cell, its slowest measured on a 2-core machine (CHANGES.md).
MAP_CELL_LIMIT = 1_000_000_000
# The seed routes of `pushforward_blocks` (PA, `check_balanced`) stop near 20 s
# at their slowest cost per unit on a 2-core machine (CHANGES.md): 46 ns per map
# cell, 90 ns per transform unit without side symbols (one `math.fsum` per
# short row; 10-14 ns with them).  Maps: seeds x max(symbols, M) x side symbols.
MAPS_LIMIT = 400_000_000
# Transform: (k q^k + seeds q^m m) x side symbols, with q^k and q^m the input
# and output sizes and k, m counted in digits over the prime field; it also
# caps `LinearFamily.image_counts` (one side symbol), 6-47 ns per unit.
TRANSFORM_LIMIT = 250_000_000
# Float slack of the universal_2 and strongly universal_2 checks.
CHECK_TOL = 1e-12


def map_histograms(maps: np.ndarray, m: int, weights) -> np.ndarray:
    """Row s sums the `weights` (with a last axis of side symbols if 2-D) of
    maps[s]'s symbols per value 1..m: one offset bincount per weight column
    for the block, each bin summed in symbol order as for one map."""
    count = len(maps)
    bins = (maps - 1 + m * np.arange(count)[:, None]).ravel()
    cols = np.reshape(weights, (len(weights), -1)).T
    hists = [np.bincount(bins, np.tile(w, count), count * m) for w in cols]
    return np.stack(hists, axis=-1).reshape((count, m) + np.shape(weights)[1:])


class HashFamily:
    """Base class: a seeded ensemble of functions alphabet -> {1..M}."""

    input_alphabet: Alphabet
    output_size: int
    seed_len: int  # digits per seed, each in digit_low .. digit_low + digit_base - 1
    digit_low: int
    digit_base: int

    def maps_of(self, seeds: np.ndarray) -> np.ndarray:
        """The maps of a (count x seed_len) block of seeds, as a
        (count x |alphabet|) int array with values in 1..M."""
        raise NotImplementedError

    @property
    def seed_count(self) -> int:
        return self.digit_base**self.seed_len

    def seeds(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The seeds of ranks start .. stop-1 (all by default), one per row: a
        rank's base-`digit_base` digits, most significant first.  A rank
        outside 0 .. seed_count - 1, or a seed space past int64, is refused."""
        count, base = self.seed_count, self.digit_base
        stop = count if stop is None else stop
        if count > np.iinfo(np.int64).max:
            raise ValueError(f"{count_text(count)} seeds do not fit int64 ranks")
        if start < stop and (start < 0 or stop > count):
            raise ValueError(f"seed ranks {start} .. {stop - 1} outside 0 .. {count - 1}")
        return rank_digits(np.arange(start, stop), base, self.seed_len) + self.digit_low

    def seed_blocks(self, draw: tuple[np.random.Generator, int] | None, cells: int):
        """Every seed in rank order, or for a draw (rng, count) `count` seeds
        drawn from rng, in the `dists.blocks` of `cells` cells per seed; each
        block is built (one `draw_seeds` call for a draw) when it is read.
        Refused at the call past ENUMERATION_LIMIT seeds or samples."""
        if draw is None:
            require_work(self.seed_count, "seeds", ENUMERATION_LIMIT)
            return (self.seeds(b.start, b.stop) for b in blocks(self.seed_count, cells))
        rng, count = draw
        require_work(count, "samples", ENUMERATION_LIMIT)
        return (self.draw_seeds(rng, b.stop - b.start) for b in blocks(count, cells))

    def iter_maps(self):
        """The maps of every seed in rank order, in the `dists.blocks` of
        |alphabet| cells per map; refused past MAP_CELL_LIMIT map cells in
        all, then as `seed_blocks`."""
        require_work(self.seed_count * self.input_alphabet.size, "map cells", MAP_CELL_LIMIT)
        for block in self.seed_blocks(None, self.input_alphabet.size):
            yield self.maps_of(block)

    def pushforward_blocks(self, weights, draw: tuple[np.random.Generator, int] | None = None):
        """The pushforward rows of every seed in rank order, or of the seeds of
        a draw (rng, count), in blocks: row s is `map_histograms` of seed s's
        map, the sum of `weights` over each output's preimage (with a last
        axis of side symbols if `weights` is 2-D), in the blocks of the larger
        of a map's and a histogram's cells.  Refused before any block or drawn
        seed: for one seed's histogram over DEFAULT_MAX_CELLS, then past
        MAPS_LIMIT map cells (seeds x max(|alphabet|, M) x side symbols, what a
        seed reads and fills), then as `seed_blocks`."""
        n, m, side = self.input_alphabet.size, self.output_size, np.size(weights) // len(weights)
        require_work(m * side, f"histogram cells ({m} outputs x {side} side symbols)")
        self._require_route(draw, max(n, m) * side, "map cells", MAPS_LIMIT)
        cells = max(n, m * side)
        return (map_histograms(self.maps_of(b), m, weights) for b in self.seed_blocks(draw, cells))

    def _require_route(self, draw, per_seed: int, what: str, cap: int, fixed: int = 0):
        """Refuse a pushforward route of `fixed` + `per_seed` units per seed
        (every seed, or the seeds of `draw`) past `cap`."""
        count = self.seed_count if draw is None else draw[1]
        require_work(fixed + count * per_seed, f"{what} ({count_text(count)} seeds)", cap)

    def draw_seeds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` uniform seeds, one per row, drawn by one rng.integers call;
        the digits come in the order of `count` one-seed calls."""
        low = self.digit_low
        return rng.integers(low, low + self.digit_base, size=(count, self.seed_len))

    def sample_seed(self, rng: np.random.Generator) -> tuple[int, ...]:
        """One uniform seed, the one-seed case of `draw_seeds`."""
        return tuple(int(d) for d in self.draw_seeds(rng, 1)[0])

    def as_map(self, seed) -> np.ndarray:
        """The whole map for one seed, as an int array over the alphabet order."""
        arr = np.asarray(seed, dtype=np.int64)
        if arr.shape != (self.seed_len,):
            raise ValueError(f"seed must have {self.seed_len} digits")
        if np.any((arr < self.digit_low) | (arr >= self.digit_low + self.digit_base)):
            raise ValueError("seed digit out of range")
        return self.maps_of(arr[None])[0]


class FullyRandomFamily(HashFamily):
    """One independent uniform output per input symbol (strongly universal_2).

    The seed is the entire map, one digit in 1..M per input symbol, so the
    seed space has size M^|alphabet|.
    """

    def __init__(self, input_alphabet: Alphabet, output_size: int):
        if output_size < 1:
            raise ValueError("output size must be >= 1")
        self.input_alphabet = input_alphabet
        self.output_size = output_size
        self.seed_len, self.digit_low, self.digit_base = input_alphabet.size, 1, output_size

    def maps_of(self, seeds: np.ndarray) -> np.ndarray:
        return np.asarray(seeds, dtype=np.int64)


class LinearFamily(HashFamily):
    """Linear maps F_q^k -> F_q^m, q = p^e.

    Over the prime field a seed's map is an (m e) x (k e) matrix A on the
    big-endian base-p digits of the symbol indices: a GF(4) digit is
    two bits, and GF(4) addition is XOR of indices.  `matrices` gives these
    per block of seeds; maps, pushforwards and image counts come from them.
    """

    field: Field
    k: int
    m: int

    def matrices(self, seeds: np.ndarray) -> np.ndarray:
        """The (count x m e x k e) digits over F_p of the seeds' matrices."""
        raise NotImplementedError

    def maps_of(self, seeds: np.ndarray) -> np.ndarray:
        """Seed A sends the symbol of digits x to A x, a combination of A's columns."""
        columns = self.matrices(seeds).transpose(0, 2, 1)
        return combination_indices(columns, self.field.prime) + 1

    def pushforward_blocks(self, weights, draw: tuple[np.random.Generator, int] | None = None):
        """As `HashFamily.pushforward_blocks`, by the character transform.

        With F(u) = sum_a w(a) chi(-u.a) over F_p^(k e) and chi(t) =
        exp(2 pi i t / p), the pushforward under A is
        P_A(y) = p^-(m e) sum_v chi(v.y) F(A^T v): one transform of the
        weights, then per seed a gather of F at A^T v for all v (built from
        the rows of A by linearity) and one inverse transform of size M, in
        the blocks of M max(k e, side symbols) digit and gathered cells per
        seed.  The route cap is TRANSFORM_LIMIT transform units,
        (k e q^k + seeds M m e) x side symbols."""
        p, e, n = self.field.prime, self.field.degree, self.k * self.field.degree
        w, m = np.asarray(weights, dtype=float), self.output_size
        side = int(np.prod(w.shape[1:]))
        self._require_route(draw, m * self.m * e * side, "transform units", TRANSFORM_LIMIT,
                            n * self.input_alphabet.size * side)
        seeds = self.seed_blocks(draw, m * max(n, side))
        spec = _character_transform(w.reshape(len(w), -1).T, p, -1)  # side x p^n

        def hists(block):
            picked = spec[:, combination_indices(self.matrices(block), p)]
            out = _character_transform(picked, p, 1).real / m
            return np.moveaxis(out, 0, -1).reshape((len(block), m) + w.shape[1:])

        return map(hists, seeds)

    def image_counts(self, joint: bool) -> np.ndarray:
        """counts[d, y]: the seeds whose matrix sends the symbol of index d to
        output y + 1, for each y if `joint`, else for y = 0 (the kernels).

        By MacWilliams, #{A : A d = y} = (1/M) sum_v chi(-v.y) sum_u J(u, v)
        chi(u.d) with J(u, v) = #{A : A^T v = u}: per seed block one bincount
        of the gathers of `pushforward_blocks` (summed over v unless `joint`),
        then a transform over u and, if `joint`, an inverse one over v (exact:
        +-1 sums for p = 2, odd p rounded).  Refused past DEFAULT_MAX_CELLS
        counts, then as `pushforward_blocks` plus both transforms."""
        p, e, n, m = self.field.prime, self.field.degree, self.k * self.field.degree, self.output_size
        size, width = p**n, m if joint else 1
        require_work(size * width, f"histogram cells ({size} symbols x {width} outputs)")
        self._require_route(None, m * self.m * e, "transform units", TRANSFORM_LIMIT,
                            (n + joint * self.m * e) * size * width)
        keys = np.arange(m) * size  # v q^k + u, the joint key
        hist = np.zeros(size * width, dtype=np.int64)
        # per seed: m e x k e matrix digits, M gathers (odd p: on k e digit planes)
        for b in self.seed_blocks(None, max(self.m * e * n, m if p == 2 else m * n)):
            gathers = combination_indices(self.matrices(b), p)
            hist += np.bincount((gathers + keys if joint else gathers).ravel(), minlength=hist.size)
        counts = _character_transform(hist.reshape(width, size), p, 1).T
        counts = _character_transform(counts, p, -1) if joint else counts
        return np.rint(counts.real / m).astype(np.int64)


# Most elements in one dense step of `_character_transform`: a step is then a
# matrix product of width at most 32 (5 binary digits, 3 ternary, 2 of F_5).
_TRANSFORM_GROUP = 32


def _character_transform(x: np.ndarray, p: int, sign: int) -> np.ndarray:
    """sum_t chi(sign u.t) x[..., t] for every u, over the last axis of x,
    whose p^n entries are indexed by F_p^n in big-endian digits.

    chi(t) = exp(2 pi i t / p), which is +-1 for p = 2 (a real Walsh-Hadamard
    transform).  Each step multiplies the last group of digits by that
    group's dense character matrix and rotates the group to the front, so n
    digits take about n / log_p(32) steps."""
    size = x.shape[-1]
    n = round(math.log(size, p))
    group = max(1, int(math.log(_TRANSFORM_GROUP, p) + 1e-9))
    out = x.reshape(-1, size)
    done = 0
    while done < n:
        width = min(group, n - done)
        digits = rank_digits(np.arange(p**width), p, width)
        dots = digits @ digits.T % p
        chars = 1.0 - 2.0 * dots if p == 2 else np.exp(sign * 2j * np.pi * dots / p)
        g = p**width
        out = (out.reshape(-1, g) @ chars).reshape(-1, size // g, g).transpose(0, 2, 1)
        done += width
    return out.reshape(x.shape)


class ToeplitzFamily(LinearFamily):
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
        self.field = Field(q)
        capped_power(q, k, "input symbols")
        self.q = q
        self.k = k
        self.m = m
        self.input_alphabet = product_alphabet(
            Alphabet(tuple(str(d) for d in range(q))), k
        )
        self.output_size = q**m
        self.seed_len, self.digit_low, self.digit_base = k - 1, 0, q

    def matrices(self, seeds: np.ndarray) -> np.ndarray:
        """(X | I) over F_p: block (i, j) of X is the digit matrix of seed
        digit (k - m - 1) + i - j."""
        m, r, e = self.m, self.k - self.m, self.field.degree
        seeds = np.asarray(seeds, dtype=np.int64)
        at = (r - 1) + np.arange(m)[:, None] - np.arange(r)
        x = self.field.digit_matrices()[seeds[:, at]]  # count x m x r x e x e
        x = x.transpose(0, 1, 3, 2, 4).reshape(len(seeds), m * e, r * e)
        eye = np.broadcast_to(np.eye(m * e, dtype=np.int64), (len(seeds), m * e, m * e))
        return np.concatenate([x, eye], axis=2)


def fit_toeplitz(m: int, l: int, q: int | None = None) -> ToeplitzFamily:
    """The Toeplitz family over F_q from M*L = q^k inputs onto M = q^m
    outputs, with 1 <= m < k; without q, over the first of F_2, F_3, F_5 and
    F_7 that fits.  A ValueError when none fits."""
    for b in (2, 3, 5, 7) if q is None else (q,):
        if b >= 2 and m >= 1 and l >= 1:
            k, mm = round(math.log(m * l, b)), round(math.log(m, b))
            if b**k == m * l and b**mm == m and 1 <= mm < k:
                return ToeplitzFamily(b, k, mm)
    fields = "F_2, F_3, F_5 or F_7" if q is None else f"F_{q}"
    raise ValueError(f"M={m}, L={l} do not fit a Toeplitz family over {fields}")


class ExplicitFamily(HashFamily):
    """A hash family given by an explicit list of maps, one per seed; the
    seed of map i is the 1-tuple (i,)."""

    def __init__(self, input_alphabet: Alphabet, output_size: int, maps):
        rows = [np.asarray(m, dtype=np.int64) for m in maps]
        if not rows:
            raise ValueError("an explicit family needs at least one map")
        if any(row.shape != (input_alphabet.size,) for row in rows):
            raise ValueError("map length must match alphabet size")
        table = np.stack(rows)
        if table.min() < 1 or table.max() > output_size:
            raise ValueError("map output out of range")
        self.input_alphabet = input_alphabet
        self.output_size = output_size
        self._maps = table
        self.seed_len, self.digit_low, self.digit_base = 1, 0, len(rows)

    def maps_of(self, seeds: np.ndarray) -> np.ndarray:
        return self._maps[np.asarray(seeds, dtype=np.int64)[:, 0]]


def _pair_counts(fam: HashFamily, joint: bool):
    """Exact pair counts of the seed maps, for one tile of symbols at a time.

    Yields (a, counts, upper) per tile of symbols a.  counts[i, u, b, v]
    counts the seeds with f(a[i]) = u + 1 and f(b) = v + 1 if `joint`, else
    (u = v = 0) those with f(a[i]) = f(b); `upper` masks the pairs b > a[i].
    counts is the Gram matrix of the one-hot seed maps summed over seed
    blocks; tiles and seed blocks are the `dists.blocks` of one symbol's
    counts and of one one-hot map.  One symbol's counts over
    DEFAULT_MAX_CELLS, or more than MAP_CELL_LIMIT one-hot map cells in all
    (each tile reads every one-hot map), are refused before the sweep, then
    the seeds as `seed_blocks` at the first tile."""
    n, m, s = fam.input_alphabet.size, fam.output_size, fam.seed_count
    width = m if joint else 1
    require_work(width * n * width, f"pair counts of one symbol ({width} x {n} x {width})")
    tiles = list(blocks(n, n * width * width))
    what = f"one-hot map cells ({len(tiles)} tiles x {s} seeds x {n} symbols x {m} outputs)"
    require_work(len(tiles) * s * n * m, what, MAP_CELL_LIMIT)
    outputs = np.arange(1, m + 1)
    for tile in tiles:
        a = np.arange(tile.start, tile.stop)
        cols = slice(tile.start * width, tile.stop * width)
        counts = 0.0
        # float32 sums of 0/1 products are exact below 2^24 seeds a block
        for maps in map(fam.maps_of, fam.seed_blocks(None, n * m)):
            hot = (maps[:, :, None] == outputs).astype(np.float32)
            if joint:
                enc = hot.reshape(len(maps), n * m)
            else:
                enc = hot.transpose(0, 2, 1).reshape(-1, n)
            counts = counts + (enc[:, cols].T @ enc).astype(float)
        upper = (np.arange(n) > a[:, None])[:, None, :, None]
        yield a, counts.reshape(-1, width, n, width), upper


class Universal2Report(NamedTuple):
    passed: bool
    max_collision: float
    bound: float
    worst_pair: tuple[str, str] | None


class BalancedReport(NamedTuple):
    passed: bool
    bad_seed_index: int | None
    preimage_sizes: tuple[int, ...] | None


class StronglyUniversal2Report(NamedTuple):
    passed: bool
    single_uniform: bool
    pairwise_independent: bool
    max_single_deviation: float
    max_pair_deviation: float


def check_universal2(fam: HashFamily) -> Universal2Report:
    """Exact worst-pair collision probability over the full seed space.

    The worst pair is the first pair a < b (in row-major order) with the most
    collisions (None for a one-symbol alphabet).  A linear family's pair
    collides exactly when its difference is in the kernel, so its counts are
    the kernel column of `image_counts` and its worst pair is (0, the lowest
    nonzero d with the top count).  Other families' come from the pair
    counts."""
    if isinstance(fam, LinearFamily):
        counts = fam.image_counts(joint=False)[:, 0]
        d = 1 + int(np.argmax(counts[1:]))
        best, worst = float(counts[d]), (0, d)
    else:
        best, worst = -1.0, None
        for a, counts, upper in _pair_counts(fam, joint=False):
            masked = np.where(upper, counts, -1.0)[:, 0, :, 0]
            i, b = divmod(int(np.argmax(masked)), masked.shape[1])
            if masked[i, b] > best:
                best, worst = float(masked[i, b]), (int(a[i]), int(b))
    max_coll = best / fam.seed_count if worst is not None else 0.0
    bound = 1.0 / fam.output_size
    symbols = fam.input_alphabet.symbols
    return Universal2Report(
        passed=max_coll <= bound + CHECK_TOL,
        max_collision=max_coll,
        bound=bound,
        worst_pair=None if worst is None else (symbols[worst[0]], symbols[worst[1]]),
    )


def check_balanced(fam: HashFamily) -> BalancedReport:
    """Pass iff every seed's preimage sizes are equal, else report the first
    seed in rank order that fails.  The sizes are the pushforward of all-ones
    weights by the family's route, under its caps: a linear family's reads no
    map cell (q^k / |im A| on im A, +-1 sums for p = 2, odd p rounded)."""
    start = 0
    for rows in fam.pushforward_blocks(np.ones(fam.input_alphabet.size)):
        sizes = np.rint(rows).astype(np.int64)
        bad = np.flatnonzero(sizes.min(axis=1) != sizes.max(axis=1))
        if bad.size:
            return BalancedReport(False, start + int(bad[0]), tuple(sizes[bad[0]].tolist()))
        start += len(rows)
    return BalancedReport(True, None, None)


def check_strongly_universal2(fam: HashFamily) -> StronglyUniversal2Report:
    """Exact check of single-output uniformity and pairwise independence.

    Every seed of a linear family sends symbol 0 to output 1, so the seeds
    with f(0) = 1 and f(b) = v are those with f(b) = v: no pair count
    exceeds the top per-symbol output count, `image_counts(joint=True)`
    (no map is built), and the pairs (0, b) reach it.  So the deviations
    are those of the pairs (0, b): symbol 0's count s against s/M, that top
    count against s/M^2 (every other pair deviates less, and (0, b)'s zero
    counts by s/M^2).  Other families' come from the pair counts."""
    s, m_out = fam.seed_count, fam.output_size
    target_single, target_pair = s / m_out, s / (m_out * m_out)
    max_single = max_pair = 0.0
    if isinstance(fam, LinearFamily):
        counts = fam.image_counts(joint=True)
        max_single, max_pair = s - target_single, float(counts[1:].max()) - target_pair
    else:
        for a, counts, upper in _pair_counts(fam, joint=True):
            hist = counts[np.arange(len(a)), :, a, :].diagonal(axis1=1, axis2=2)
            max_single = max(max_single, float(np.abs(hist - target_single).max()))
            dev = np.abs(counts - target_pair).max(initial=0.0, where=upper)
            max_pair = max(max_pair, float(dev))
    max_single, max_pair = max_single / s, max_pair / s
    single_ok = max_single <= CHECK_TOL
    pair_ok = max_pair <= CHECK_TOL
    return StronglyUniversal2Report(
        passed=single_ok and pair_ok,
        single_uniform=single_ok,
        pairwise_independent=pair_ok,
        max_single_deviation=max_single,
        max_pair_deviation=max_pair,
    )
