"""Exact arithmetic on finite distributions.

Distances, Renyi-type entropies, divergences, tilting, smoothing by atom
truncation, i.i.d. extension, and enumeration of empirical types.  All
logarithms are natural (nats).  A "sub-distribution" is a nonnegative mass
vector whose total may be anything in [0, 1]; several bounds in this package
are stated for sub-distributions, so totals below 1 are first-class here.

Conventions: 0 * log 0 = 0, and p^(1+s) = 0 at p = 0 for every s > -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Alphabet",
    "SubDist",
    "JointDist",
    "TypeClass",
    "AlphabetMismatchError",
    "SizeLimitError",
    "range_alphabet",
    "product_alphabet",
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
    "iid_extend",
    "conditional_shannon_entropy",
    "enumerate_types",
    "strings_by_type",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_CELLS = 1 << 20

_MASS_SLACK = 1e-12


class AlphabetMismatchError(ValueError):
    """Two distributions live on different alphabets."""


class SizeLimitError(ValueError):
    """An operation would materialize more cells than the configured cap."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.symbols)}
        )

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None


def range_alphabet(m: int) -> Alphabet:
    """The output alphabet {1, ..., m} with string labels."""
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    return Alphabet(tuple(str(i) for i in range(1, m + 1)))


def product_alphabet(alphabet: Alphabet, n: int) -> Alphabet:
    """n-fold product alphabet; labels are concatenations of the factors."""
    sep = "" if all(len(s) == 1 for s in alphabet.symbols) else "|"
    symbols = tuple(
        sep.join(t) for t in itertools.product(alphabet.symbols, repeat=n)
    )
    return Alphabet(symbols)


def _pair_alphabet(first: Alphabet, second: Alphabet) -> Alphabet:
    return Alphabet(
        tuple(
            f"{a},{b}"
            for a in first.symbols
            for b in second.symbols
        )
    )


class SubDist:
    """A nonnegative mass vector over an alphabet, total mass at most 1."""

    __slots__ = ("alphabet", "mass", "total")

    def __init__(self, alphabet: Alphabet, mass):
        arr = np.array(mass, dtype=float)
        if arr.shape != (alphabet.size,):
            raise ValueError(
                f"mass vector has shape {arr.shape}, expected ({alphabet.size},)"
            )
        if arr.min(initial=0.0) < -_MASS_SLACK:
            raise ValueError("negative mass")
        np.clip(arr, 0.0, None, out=arr)
        total = float(math.fsum(arr.tolist()))
        if total > 1.0 + _MASS_SLACK:
            raise ValueError(f"total mass {total} exceeds 1")
        arr.setflags(write=False)
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

    @classmethod
    def from_pairs(cls, pairs) -> "SubDist":
        symbols, values = zip(*pairs)
        return cls(Alphabet(tuple(symbols)), np.array(values, dtype=float))

    def p(self, symbol: str) -> float:
        return float(self.mass[self.alphabet.index(symbol)])

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.mass > 0.0)

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

    __slots__ = ("alphabet_a", "alphabet_e", "mass")

    def __init__(self, alphabet_a: Alphabet, alphabet_e: Alphabet, mass):
        arr = np.array(mass, dtype=float)
        if arr.shape != (alphabet_a.size, alphabet_e.size):
            raise ValueError(
                f"joint mass has shape {arr.shape}, expected "
                f"({alphabet_a.size}, {alphabet_e.size})"
            )
        if arr.min(initial=0.0) < -_MASS_SLACK:
            raise ValueError("negative mass")
        np.clip(arr, 0.0, None, out=arr)
        total = float(math.fsum(arr.ravel().tolist()))
        if abs(total - 1.0) > _MASS_SLACK:
            raise ValueError(f"joint mass sums to {total}, expected 1")
        arr.setflags(write=False)
        self.alphabet_a = alphabet_a
        self.alphabet_e = alphabet_e
        self.mass = arr

    @classmethod
    def independent(cls, pa: SubDist, pe: SubDist) -> "JointDist":
        return cls(pa.alphabet, pe.alphabet, np.outer(pa.mass, pe.mass))

    def marginal_a(self) -> SubDist:
        return SubDist(self.alphabet_a, self.mass.sum(axis=1))

    def marginal_e(self) -> SubDist:
        return SubDist(self.alphabet_e, self.mass.sum(axis=0))

    def conditional_a_given_e(self) -> np.ndarray:
        """Columnwise conditionals P(a|e); all-zero columns stay zero."""
        pe = self.mass.sum(axis=0)
        out = np.zeros_like(self.mass)
        pos = pe > 0.0
        out[:, pos] = self.mass[:, pos] / pe[pos]
        return out

    def iid_extend(self, n: int, max_cells: int = DEFAULT_MAX_CELLS) -> "JointDist":
        """Product distribution of n independent copies of the pair."""
        if n < 1:
            raise ValueError("n must be >= 1")
        cells = (self.alphabet_a.size * self.alphabet_e.size) ** n
        if cells > max_cells:
            raise SizeLimitError(f"{cells} joint cells exceed cap {max_cells}")
        out = self.mass
        for _ in range(n - 1):
            # kron on both axes keeps (a, e) big-endian in both coordinates
            out = np.kron(out, self.mass).reshape(
                out.shape[0] * self.alphabet_a.size,
                out.shape[1] * self.alphabet_e.size,
            )
        return JointDist(
            product_alphabet(self.alphabet_a, n),
            product_alphabet(self.alphabet_e, n),
            out,
        )


def _require_same_alphabet(p: SubDist, q: SubDist):
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {p.alphabet.symbols} vs {q.alphabet.symbols}"
        )


def l1_distance(p: SubDist, q: SubDist) -> float:
    """Sum of |P(x) - Q(x)| (the variational distance, unhalved)."""
    _require_same_alphabet(p, q)
    return float(math.fsum(np.abs(p.mass - q.mass).tolist()))


def d1_uniformity(p: SubDist) -> float:
    """L1 distance from the total-mass-scaled uniform distribution."""
    return l1_distance(p, p.scaled_uniform())


def l2_distance(p: SubDist, q: SubDist) -> float:
    _require_same_alphabet(p, q)
    return float(math.sqrt(math.fsum(((p.mass - q.mass) ** 2).tolist())))


def shannon_entropy(p: SubDist) -> float:
    """-sum p log p in nats, with 0 log 0 = 0 (defined for sub-distributions)."""
    m = p.mass[p.mass > 0.0]
    return float(-math.fsum((m * np.log(m)).tolist()))


def _power_sum(p: SubDist, order: float) -> float:
    """sum p^order over the support."""
    m = p.mass[p.mass > 0.0]
    if m.size == 0:
        raise ValueError("empty support")
    return float(math.fsum((m**order).tolist()))


def renyi_tilde(p: SubDist, s: float) -> float:
    """Unnormalized Renyi entropy -log sum_a P(a)^(1+s), in nats.

    Concave in s; the normalized order-(1+s) entropy is this divided by s,
    whose s -> 0 limit is the Shannon entropy.
    """
    if s <= -1.0:
        raise ValueError("order parameter must satisfy s > -1")
    return -math.log(_power_sum(p, 1.0 + s))


def renyi(p: SubDist, s: float) -> float:
    """Renyi entropy of order 1+s; the s = 0 case returns Shannon entropy."""
    if s == 0.0:
        return shannon_entropy(p)
    return renyi_tilde(p, s) / s


def renyi_tilde_derivative(p: SubDist, s: float) -> float:
    """d/ds of renyi_tilde: -(sum p^(1+s) log p) / (sum p^(1+s))."""
    if s <= -1.0:
        raise ValueError("order parameter must satisfy s > -1")
    m = p.mass[p.mass > 0.0]
    if m.size == 0:
        raise ValueError("empty support")
    w = m ** (1.0 + s)
    num = math.fsum((w * np.log(m)).tolist())
    den = math.fsum(w.tolist())
    return -num / den


def kl_divergence(q: SubDist, p: SubDist) -> float:
    """D(Q||P) = sum Q log(Q/P), +inf when Q is not absolutely continuous."""
    _require_same_alphabet(q, p)
    if abs(q.total - 1.0) > 1e-9 or abs(p.total - 1.0) > 1e-9:
        raise ValueError("divergence requires probability distributions")
    qm, pm = q.mass, p.mass
    pos = qm > 0.0
    if np.any(pos & (pm <= 0.0)):
        return math.inf
    return float(math.fsum((qm[pos] * np.log(qm[pos] / pm[pos])).tolist()))


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
    z = math.fsum(w.tolist())
    return SubDist(p.alphabet, w / z)


def smooth_truncate(p: SubDist, r: float) -> tuple[SubDist, float]:
    """Zero out the atoms above the threshold e^(-r).

    Returns the truncated sub-distribution (mass removed on the heavy set
    {P(x) > e^(-r)}) and the removed tail mass, which equals the L1 distance
    between the input and the output.
    """
    heavy = p.mass > math.exp(-r)
    kept = np.where(heavy, 0.0, p.mass)
    tail = float(math.fsum(p.mass[heavy].tolist()))
    return SubDist(p.alphabet, kept), tail


def iid_extend(p: SubDist, n: int, max_cells: int = DEFAULT_MAX_CELLS) -> SubDist:
    """n-fold product distribution over the n-fold product alphabet."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = p.alphabet.size**n
    if cells > max_cells:
        raise SizeLimitError(f"{cells} cells exceed cap {max_cells}")
    mass = p.mass
    for _ in range(n - 1):
        mass = np.kron(mass, p.mass)
    return SubDist(product_alphabet(p.alphabet, n), mass)


def conditional_shannon_entropy(j: JointDist) -> float:
    """H(A|E) = H(A,E) - H(E), in nats."""
    m = j.mass[j.mass > 0.0]
    h_joint = -math.fsum((m * np.log(m)).tolist())
    return h_joint - shannon_entropy(j.marginal_e())


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
        acc = Fraction(1)
        for c, mass in zip(self.counts, p.mass):
            if c:
                acc *= Fraction(float(mass)) ** c
        return acc

    def exact_prob(self, p: SubDist) -> Fraction:
        return self.multiplicity() * self.exact_prob_single(p)


def _compositions(total: int, parts: int):
    """All ways to write `total` as an ordered sum of `parts` nonnegative ints,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_types(alphabet: Alphabet, n: int) -> list[TypeClass]:
    """All empirical types of length-n strings, lexicographic in the counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [TypeClass(alphabet, c) for c in _compositions(n, alphabet.size)]


def strings_by_type(
    alphabet: Alphabet, n: int, max_cells: int = DEFAULT_MAX_CELLS
) -> list[tuple[TypeClass, list[int]]]:
    """Group the indices of all length-n strings by their type.

    String indices follow the big-endian product order used by
    :func:`iid_extend`, i.e. index = sum_j a_j * size^(n-1-j).  Within each
    type the string indices are ascending.
    """
    size = alphabet.size
    if size**n > max_cells:
        raise SizeLimitError(f"{size**n} strings exceed cap {max_cells}")
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx, word in enumerate(itertools.product(range(size), repeat=n)):
        counts = [0] * size
        for a in word:
            counts[a] += 1
        buckets.setdefault(tuple(counts), []).append(idx)
    return [
        (tc, buckets[tc.counts]) for tc in enumerate_types(alphabet, n)
    ]
