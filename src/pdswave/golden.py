"""Exact arithmetic in the quadratic field Q(sqrt5).

The binary icosahedral group closes over numbers of the form
(a + b*sqrt5)/c with integers a, b, c, so group generation can run in
exact arithmetic and element deduplication is free of floating-point
drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Golden:
    """The number (a + b*sqrt5)/c with integers a, b and c > 0, kept in lowest terms."""

    a: int
    b: int
    c: int = 1

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if c == 0:
            raise ZeroDivisionError("Golden with zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __add__(self, other: "Golden") -> "Golden":
        return Golden(self.a * other.c + other.a * self.c,
                      self.b * other.c + other.b * self.c,
                      self.c * other.c)

    def __sub__(self, other: "Golden") -> "Golden":
        return self + (-other)

    def __neg__(self) -> "Golden":
        return Golden(-self.a, -self.b, self.c)

    def __mul__(self, other: "Golden") -> "Golden":
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 5 b1 b2 + (a1 b2 + b1 a2) r
        return Golden(self.a * other.a + 5 * self.b * other.b,
                      self.a * other.b + self.b * other.a,
                      self.c * other.c)

    def __float__(self) -> float:
        return (self.a + self.b * SQRT5) / self.c


ZERO = Golden(0, 0)
ONE = Golden(1, 0)
HALF = Golden(1, 0, 2)
# golden ratio (1 + sqrt5)/2 and quantities derived from it
SIGMA = Golden(1, 1, 2)
SIGMA_HALF = Golden(1, 1, 4)          # sigma / 2
INV_TWO_SIGMA = Golden(-1, 1, 4)      # 1 / (2 sigma) = (sqrt5 - 1)/4

# the golden ratio as a float, for the floating-point geometry
SIGMA_FLOAT = float(SIGMA)
