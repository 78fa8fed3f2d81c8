import math
from fractions import Fraction

import numpy as np
import pytest

from secexp.dists import Alphabet, SubDist, require_work
from secexp.exponents import GOLDEN_TOL
from secexp.gf import combination_indices
from secexp.hashing import BalancedReport


@pytest.fixture
def bern02():
    return SubDist.bernoulli(0.2)


@pytest.fixture
def skew3():
    return SubDist(Alphabet(("a", "b", "c")), np.array([0.5, 0.25, 0.25]))


@pytest.fixture
def ternary():
    return SubDist(Alphabet(("0", "1", "2")), np.array([0.5, 0.3, 0.2]))


def exact_sum(values) -> float:
    """The sum of floats in exact rationals, rounded once to the nearest float
    (ties to even): the oracle for correct rounding, which `math.fsum`
    (Shewchuk 1997) and so `dists.fsum_rows` must match bit for bit."""
    return float(sum(map(Fraction, values), Fraction(0)))


def exact_expected_d1(weights, maps, m) -> float:
    """E d1 in exact rationals, rounded once: the mean over the rows of `maps`
    (each a map of the symbols into 1..m) of sum_(y, e) |P_f(y, e) - P(e)/m|,
    for float (symbols[, side symbols]) weights, with P(e) their exact column
    sums (one column: a source and its total).  Every float is an integer over
    one power of two, so the cells are sums of Python ints: the true value of
    the float inputs, the oracle for `expected_d1` and `expected_d1_conditional`."""
    w = np.reshape(weights, (len(weights), -1))
    ratios = [x.as_integer_ratio() for x in w.ravel().tolist()]
    den = max(d for _, d in ratios)
    ints = np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(w.shape)
    marginal = ints.sum(axis=0)
    total = 0
    for f in maps:
        cells = np.zeros((m, w.shape[1]), dtype=object)
        np.add.at(cells, np.asarray(f) - 1, ints)
        total += sum(abs(c) for c in (m * cells - marginal).ravel().tolist())
    return float(Fraction(total, m * den * len(maps)))


def random_subdist(rng, size, total=None):
    """A random sub-distribution; total defaults to a uniform draw in (0, 1]."""
    raw = rng.random(size) + 1e-3
    if total is None:
        total = rng.uniform(0.2, 1.0)
    symbols = tuple(f"x{i}" for i in range(size))
    return SubDist(Alphabet(symbols), raw / raw.sum() * total)


def random_dist(rng, size):
    return random_subdist(rng, size, total=1.0)


@pytest.fixture
def flat4096():
    """4,096 atoms within a factor 3 of each other: the largest is 3.67e-4,
    so past s = 88.6 every summand of sum P^(1+s) is subnormal, and past
    s = 93.3 it underflows to 0 (s = 100 is the Cramer search's cap)."""
    w = 0.5 + np.random.default_rng(0).random(4096)
    symbols = tuple(f"x{i}" for i in range(4096))
    return SubDist(Alphabet(symbols), w / w.sum())


def assert_order_parity(fn, orders, cells):
    """fn on an array of orders equals one scalar call (a float) per order
    within 2 ulp; with `cells` cells per order, the orders need several
    blocks even of the whole BLOCK_CELLS budget."""
    from secexp.dists import BLOCK_CELLS

    assert orders.size > 2 * (BLOCK_CELLS // cells)
    values = fn(orders)
    scalars = [fn(float(o)) for o in orders]
    assert all(type(v) is float for v in scalars)
    assert values.shape == orders.shape
    np.testing.assert_array_max_ulp(values, np.array(scalars), maxulp=2)


def golden_max(fn, lo, hi, tol=GOLDEN_TOL):
    """Scalar golden-section search for a maximum on [lo, hi], one float call
    per step: the reference for the library's lockstep polish of many
    brackets."""
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


def scalar_maximize(fn, lo, hi, intervals=1024):
    """The 1-D optimizer evaluated one float at a time, grid and polish: the
    reference for `maximize_on_interval`, which evaluates the grid as one
    array and polishes through the batched optimizer."""
    xs = np.linspace(lo, hi, intervals + 1)
    vals = [fn(float(x)) for x in xs]
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), vals[i]
    if hi > lo:
        x, v = golden_max(fn, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, intervals)]))
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Records (objective, lo, hi, result) of every `maximize_on_interval`
    call made through the exponents, wiretap and distill modules."""
    from secexp import distill, exponents, wiretap

    real = exponents.maximize_on_interval
    calls = []

    def recording(fn, lo, hi, *args, **kwargs):
        result = real(fn, lo, hi, *args, **kwargs)
        calls.append((fn, lo, hi, result))
        return result

    for module in (exponents, wiretap, distill):
        monkeypatch.setattr(module, "maximize_on_interval", recording)
    return calls


def assert_matches_scalar_optimizer(calls, expected_calls):
    """Every recorded optimization equals the scalar-grid reference."""
    assert len(calls) == expected_calls
    for fn, lo, hi, (x, v) in calls:
        ref_x, ref_v = scalar_maximize(fn, lo, hi)
        assert x == pytest.approx(ref_x, abs=1e-15)
        assert v == pytest.approx(ref_v, abs=1e-15)


def kron_loop(a, n):
    """The n-fold Kronecker power as each extension once built it, by its
    own left fold of np.kron: the oracle for `dists.kron_power`."""
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def one_hot_metrics(codebooks, maps, m, l, wb, we):
    """eps and d1 of aligned (codebook, seed map) rows as the wiretap
    ensembles once computed them, by a one-hot matmul per pair and Bob's
    argmax per pair: the oracle for their class-row kernel."""
    ny = wb.output_alphabet.size
    scores = np.concatenate((wb.matrix, we.matrix), axis=1)[codebooks]  # P x ML x (Y+Z)
    best = scores[:, :, :ny].argmax(axis=1)  # P x Y, lowest codeword on ties
    decoded = np.take_along_axis(maps, best, axis=1)  # P x Y, values 1..M
    onehot = (maps[:, None, :] == np.arange(1, m + 1)[:, None]).astype(float)
    rows = onehot @ scores / l  # P x M x (Y+Z)
    hit = np.take_along_axis(rows[:, :, :ny], (decoded - 1)[:, None, :], axis=1)
    eps = 1.0 - hit.sum(axis=(1, 2)) / m
    eve = rows[:, :, ny:]
    d1 = np.abs(eve - eve.mean(axis=1, keepdims=True)).sum(axis=(1, 2)) / m
    return eps, d1


def assert_bit_equal(got, expected):
    """Same dtype, shape and bytes."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# The cap of `kernel_counts` on kernel vectors, seeds x q^(k-m).
KERNEL_VECTOR_LIMIT = 250_000_000


def kernel_counts(fam) -> np.ndarray:
    """counts[d]: the seeds whose matrix sends the symbol of index d to 0.

    The kernel of (X | I) is {(x, -X x)}, the span of the rows of
    (I | -X^T), so each seed adds q^(k-m) kernel vectors.  More than
    KERNEL_VECTOR_LIMIT in all, or a matrix whose last m e columns are
    not the identity, is refused.  `ToeplitzFamily.kernel_counts` as the
    library once counted universal_2 collisions: the oracle for the kernel
    column of `LinearFamily.image_counts`."""
    p, e = fam.field.prime, fam.field.degree
    n, r = fam.k * e, (fam.k - fam.m) * e
    require_work(fam.seed_count * p**r, "kernel vectors", KERNEL_VECTOR_LIMIT)
    counts = np.zeros(p**n, dtype=np.int64)
    for block in fam.seed_blocks(None, n * max(p**r, fam.m * e)):
        a = fam.matrices(block)
        if (a[:, :, r:] != np.eye(n - r, dtype=np.int64)).any():
            raise ValueError("kernel counts need matrices of the form (X | I)")
        x = a[:, :, :r]
        eye = np.broadcast_to(np.eye(r, dtype=np.int64), (len(block), r, r))
        gens = np.concatenate([eye, -x.transpose(0, 2, 1) % p], axis=2)
        counts += np.bincount(combination_indices(gens, p).ravel(), minlength=p**n)
    return counts


def image_counts_by_maps(fam) -> np.ndarray:
    """counts[d, y]: the seeds whose map sends symbol d to y + 1, by one
    `np.bincount` of each symbol's column of every block of `iter_maps`:
    the map sweep `check_strongly_universal2` once ran, the oracle for
    `LinearFamily.image_counts(joint=True)`."""
    m = fam.output_size
    counts = np.zeros((fam.input_alphabet.size, m), dtype=np.int64)
    for maps in fam.iter_maps():
        counts += np.stack([np.bincount(col - 1, minlength=m) for col in maps.T])
    return counts


def balanced_by_maps(fam):
    """`check_balanced` as the library once ran it, each map's preimage
    sizes by its own `np.bincount`, over the blocks of `iter_maps`: the
    oracle for the pushforward of the counting measure that replaced it."""
    start = 0
    for maps in fam.iter_maps():
        sizes = np.stack([np.bincount(row - 1, minlength=fam.output_size) for row in maps])
        bad = np.flatnonzero(sizes.min(axis=1) != sizes.max(axis=1))
        if bad.size:
            idx = int(bad[0])
            return BalancedReport(False, start + idx, tuple(int(v) for v in sizes[idx]))
        start += len(maps)
    return BalancedReport(True, None, None)


def normalized_by_fractions(p):
    """`intrinsic._normalized` as the library once computed it, each mass an
    exact `Fraction` over the exact total and the weights over the lcm of
    their denominators: the oracle for the integer form that replaced it."""
    exact = [Fraction(float(x)) for x in p.mass]
    total = sum(exact)
    exact = [x / total for x in exact]
    denom = math.lcm(*(x.denominator for x in exact))
    return tuple(x.numerator * (denom // x.denominator) for x in exact), denom
