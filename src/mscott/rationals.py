"""Exact rational scalars, [0,1] checks, and rational sampling grids.

Every core computation in this package runs on ``fractions.Fraction``;
no floats appear anywhere in library code.  Decimal rendering exists
only at the CLI layer and is labeled approximate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vec = tuple[Fraction, ...]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer ``p`` into a Fraction."""
    s = text.strip()
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p.strip()), int(q.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize as ``p/q``, omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_vec(xs: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(x) for x in xs) + ")"


def is_unit(x: Fraction) -> bool:
    return 0 <= x <= 1


def require_unit(x: Fraction | int, what: str = "value") -> Fraction:
    x = Fraction(x)
    if not is_unit(x):
        raise ValueError(f"{what} must lie in [0,1], got {format_rational(x)}")
    return x


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_le(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """Coordinatewise <=."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def vec_clip(a: Sequence[Fraction]) -> Vec:
    """Coordinatewise max with 0."""
    return tuple(x if x > 0 else ZERO for x in a)


@dataclass(frozen=True)
class RatGrid:
    """The finite rational grid {0, step, 2*step, ..., bound}^dimension.

    When ``step`` does not divide ``bound`` the last axis value is
    ``bound`` itself, so the grid always reaches its corner.
    Dimension 0 yields the single empty point.
    """

    dimension: int
    step: Fraction
    bound: Fraction

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValueError("dimension must be >= 0")
        if self.step <= 0 or self.bound <= 0:
            raise ValueError("step and bound must be positive rationals")

    def axis(self) -> Vec:
        vals = []
        k = 0
        while True:
            v = k * self.step
            if v > self.bound:
                break
            vals.append(v)
            k += 1
        if vals[-1] != self.bound:
            vals.append(self.bound)
        return tuple(vals)

    def points(self) -> Iterator[Vec]:
        """Deterministic lexicographic enumeration of all grid points."""
        if self.dimension == 0:
            yield ()
            return
        yield from product(self.axis(), repeat=self.dimension)

    def __len__(self) -> int:
        return len(self.axis()) ** self.dimension if self.dimension else 1


def lcm_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values`` (at least 1)."""
    L = 1
    for v in values:
        L = math.lcm(L, v.denominator)
    return L
