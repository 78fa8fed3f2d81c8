"""Small finite fields and componentwise modules.

Supports the prime fields F_q (q = 2, 3, 5, ...) via modular arithmetic and
GF(4) via explicit tables.  Larger extension fields are intentionally out of
scope: every consumer in this package enumerates exhaustively, so only tiny
fields are ever needed.

GF(4) is represented on {0, 1, 2, 3} with 2 = x and 3 = x + 1 in
GF(2)[x]/(x^2 + x + 1); addition is XOR of the 2-bit representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Field", "Module", "is_prime"]

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
        if not (is_prime(self.q) or self.q == 4):
            raise ValueError(f"unsupported field size {self.q}: need a prime or 4")

    @property
    def char2(self) -> bool:
        return self.q in (2, 4)

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

    def neg_idx(self, i: int) -> int:
        f = self.field
        return self.index(f.neg(a) for a in self.digits(i))

    def labels(self) -> tuple[str, ...]:
        return tuple(
            "".join(str(d) for d in self.digits(i)) for i in range(self.size)
        )
