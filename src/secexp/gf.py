"""Small finite fields and componentwise modules.

Supports the prime fields F_q (q = 2, 3, 5, ...) via modular arithmetic and
GF(4) via explicit tables.  Larger extension fields are intentionally out of
scope: every consumer in this package enumerates exhaustively, so only tiny
fields are ever needed: sizes over 2^20 raise `SizeLimitError` up front.

GF(4) is represented on {0, 1, 2, 3} with 2 = x and 3 = x + 1 in
GF(2)[x]/(x^2 + x + 1); addition is XOR of the 2-bit representations.
`combination_indices` lists the F_p-linear combinations of generator rows:
linear codes, the module's difference table and linear hash maps.
`rank_digits` is the one codec of ranks to big-endian digits: hash seeds,
codebooks and the character transform's digit tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import Alphabet, JointDist, capped_power, kron_power, product_alphabet

__all__ = ["Field", "Module", "combination_indices", "is_prime", "rank_digits"]

# Multiplication table for GF(4) on {0, 1, x, x+1}.
_GF4_MUL = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.int64,
)
_GF4_MUL.setflags(write=False)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """F_q arithmetic on the element set {0, ..., q-1}."""

    q: int

    def __post_init__(self):
        capped_power(self.q, 1, "field elements")
        if not (is_prime(self.q) or self.q == 4):
            raise ValueError(f"unsupported field size {self.q}: need a prime or 4")

    def add(self, a: int, b: int) -> int:
        if self.q == 4:
            return a ^ b
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        if self.q == 4:
            return a ^ b
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        if self.q == 4:
            return a
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if self.q == 4:
            return int(_GF4_MUL[a, b])
        return (a * b) % self.q

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The addition and multiplication tables: [a, b] holds a + b, a * b."""
        e = np.arange(self.q, dtype=np.int64)
        if self.q == 4:
            return e[:, None] ^ e, _GF4_MUL
        return (e[:, None] + e) % self.q, (e[:, None] * e) % self.q

    @property
    def prime(self) -> int:
        """The characteristic p, with q = p^degree."""
        return 2 if self.q == 4 else self.q

    @property
    def degree(self) -> int:
        """e, with q = prime^e: the base-p digits of one element index."""
        return 2 if self.q == 4 else 1

    def digit_matrices(self) -> np.ndarray:
        """(q, degree, degree): entry c is the matrix over F_p of b |-> c * b
        on the big-endian base-p digits of the element index b (for GF(4),
        index 2 = x is digits (1, 0)), so index addition stays digitwise."""
        p, e = self.prime, self.degree
        basis = p ** np.arange(e - 1, -1, -1)  # the index with digit j set
        products = self.tables()[1][:, basis]  # [c, j]: index of c * basis_j
        return products[:, None, :] // basis[:, None] % p  # [c, i, j]: its digit i


@dataclass(frozen=True)
class Module:
    """The additive group F_q^n, with symbols indexed by big-endian digits.

    Symbol i has digits d such that i = sum_j d_j * q^(n-1-j).  Addition is
    componentwise field addition, so for q = 4 the group is (Z_2)^(2n), not
    Z_4^n; this keeps cosets of linear codes and additive channel shifts on
    the same group.
    """

    q: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("module length must be >= 1")
        object.__setattr__(self, "_field", Field(self.q))
        capped_power(self.q, self.n, "module symbols")

    @property
    def field(self) -> Field:
        return self._field

    @property
    def size(self) -> int:
        return self.q**self.n

    def digits(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(i % self.q)
            i //= self.q
        return tuple(reversed(out))

    def index(self, digits) -> int:
        i = 0
        for d in digits:
            i = i * self.q + int(d)
        return i

    def add_idx(self, i: int, j: int) -> int:
        f = self.field
        return self.index(
            f.add(a, b) for a, b in zip(self.digits(i), self.digits(j))
        )

    def sub_idx(self, i: int, j: int) -> int:
        f = self.field
        return self.index(
            f.sub(a, b) for a, b in zip(self.digits(i), self.digits(j))
        )

    def sub_table(self) -> np.ndarray:
        """The difference table: entry [i, j] is the index of i - j, the
        combination over F_p of the unit vectors with i's digits and of
        their negatives with j's."""
        p, n = self.field.prime, self.n * self.field.degree
        units = np.eye(n, dtype=np.int64)
        gens = np.concatenate([units, -units % p])[None]
        return combination_indices(gens, p)[0].reshape(self.size, self.size)

    def neg_idx(self, i: int) -> int:
        f = self.field
        return self.index(f.neg(a) for a in self.digits(i))

    def labels(self) -> tuple[str, ...]:
        """The symbols' digit strings in index order, as `product_alphabet`
        labels them: joined by "|" once q > 10, so they stay distinct."""
        digits = Alphabet(tuple(str(d) for d in range(self.q)))
        return product_alphabet(digits, self.n).symbols

    def extend(self, joint: JointDist, n: int) -> tuple[JointDist, "Module"]:
        """The n-fold product of a joint whose secret alphabet is this
        module's symbols, as a joint over F_q^(n0 n) (n0 = self.n) with that
        module's labels, and the module; refused beyond DEFAULT_MAX_CELLS
        joint cells."""
        mass = kron_power(joint.mass, n, "joint cells")
        module = Module(self.q, self.n * n)
        return JointDist(Alphabet(module.labels()), product_alphabet(joint.alphabet_e, n), mass), module


def rank_digits(ranks: np.ndarray, base: int, width: int) -> np.ndarray:
    """Each rank as its `width` base-`base` digits, most significant first,
    one row per rank: consecutive ranks follow itertools.product order."""
    return ranks[:, None] // base ** np.arange(width - 1, -1, -1) % base


def combination_indices(gens: np.ndarray, p: int) -> np.ndarray:
    """(count x p^r) indices over F_p^n of sum_i c_i gens[:, i] for every
    c in F_p^r (big-endian order), from a (count x r x n) block of digits.

    Built by linearity, one generator at a time, each new one the leading
    digit of c: for p = 2 on the indices, where adding is XOR, otherwise on
    small unsigned digits, one plane per coordinate, where a sum d >= p
    becomes d - p, the minimum of d and d - p (which wraps above d < p)."""
    count, r, n = gens.shape
    if p == 2:
        out = np.zeros((count, 1), dtype=np.int64)
        for row in (gens @ (1 << np.arange(n - 1, -1, -1))).T[::-1]:
            out = np.concatenate([out, out ^ row[:, None]], axis=1)
        return out
    small = np.min_scalar_type(2 * p)
    digits = np.zeros((n, count, 1), dtype=small)
    for i in reversed(range(r)):
        multiples = (gens[:, i].T[:, :, None] * np.arange(p) % p).astype(small)  # n x count x p
        sums = multiples[:, :, :, None] + digits[:, :, None, :]
        digits = np.minimum(sums, sums - small.type(p)).reshape(n, count, -1)
    return np.einsum("i,ijk->jk", p ** np.arange(n - 1, -1, -1, dtype=np.int64), digits)
