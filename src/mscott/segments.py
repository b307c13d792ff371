"""Segment connectives: the building blocks of the dense family.

A segment connective is the canonical modulus-respecting interpolant on
the unit cube: it takes value ``a`` at an anchor point, ``b`` at a second
anchor, and in between scales the folded modulus distance from the first
anchor.  Meets and joins of segments (``MinF``/``MaxF`` of ``SegF`` in
``syntax``) form a lattice that is dense, in the uniform norm at grid
scale, among all functions respecting the modulus; ``family`` builds
its members and ``family.lattice_approximate`` its approximants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .moduli import Linear, Modulus, PolyhedralMax, pi_fold
from .rationals import (
    ONE,
    RatGrid,
    Vec,
    format_rational,
    require_unit,
    vec_sub,
)


@dataclass(frozen=True)
class SegmentConnective:
    """min(1, a + (b-a)/D(y-x) * D(z-x)) where D folds the modulus over
    coordinatewise absolute differences; constant ``a`` when D(y-x) = 0.

    Construction enforces a <= b <= a + D(pi(y-x)) (with a = b forced in
    the degenerate case), which makes the segment respect its modulus and
    interpolate a at x and b at y.
    """

    delta: Modulus
    x: Vec
    y: Vec
    a: Fraction
    b: Fraction
    span: Fraction = field(init=False, compare=False, repr=False)  # D(pi(y - x))

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(Fraction(v) for v in self.x))
        object.__setattr__(self, "y", tuple(Fraction(v) for v in self.y))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "span", self.delta(pi_fold(vec_sub(self.y, self.x))))

    @property
    def arity(self) -> int:
        return self.delta.arity

    @property
    def degenerate(self) -> bool:
        return self.span == 0

    def slope(self) -> Fraction:
        """(b - a) / D(y - x); only for nondegenerate segments."""
        if self.span == 0:
            raise ValueError("degenerate segment has no slope")
        return (self.b - self.a) / self.span

    def __call__(self, z: Sequence[Fraction]) -> Fraction:
        zs = tuple(Fraction(v) for v in z)
        if len(zs) != self.arity:
            raise ValueError(f"segment of arity {self.arity} applied to {len(zs)} args")
        if self.span == 0:
            return self.a
        rise = (self.b - self.a) * self.delta(pi_fold(vec_sub(zs, self.x))) / self.span
        return min(ONE, self.a + rise)

    def column(self, cols: Sequence[Sequence[Fraction]]) -> list[Fraction]:
        """``[self(z) for z in zip(*cols)]``, where ``cols[i]`` holds the
        exact values of coordinate i at every point.

        For a ``Linear`` or ``PolyhedralMax`` delta no Fraction arithmetic
        runs per point.  With L the common denominator of the points and of
        x, and Lc that of the delta's rows, D(pi(z - x)) = P / (Lc * L) for
        P = max_r sum_i C_ri * |Z_i - X_i| over the scaled integers, and one
        Fraction is built per distinct P.  Other deltas go point by point."""
        if len(cols) != self.arity:
            raise ValueError(f"segment of arity {self.arity} applied to {len(cols)} columns")
        if self.span == 0:
            return [self.a] * len(cols[0])
        if not isinstance(self.delta, (Linear, PolyhedralMax)):
            return [self(z) for z in zip(*cols)]
        rows = self.delta.rows if isinstance(self.delta, PolyhedralMax) else (self.delta.coeffs,)
        L = lcm(*{v.denominator for col in cols for v in col}, *(v.denominator for v in self.x))
        Lc = lcm(*(c.denominator for row in rows for c in row))
        C = [[c.numerator * (Lc // c.denominator) for c in row] for row in rows]
        X = [v.numerator * (L // v.denominator) for v in self.x]
        Z = [[v.numerator * (L // v.denominator) for v in col] for col in cols]
        ps = []
        for z in zip(*Z):
            d = [abs(zi - xi) for zi, xi in zip(z, X)]
            ps.append(max(sum(c * di for c, di in zip(row, d)) for row in C))
        # a + slope * P / (Lc * L) = (base + rise * P) / den, clipped at 1
        slope = (self.b - self.a) / self.span
        q = slope.denominator * Lc * L
        base, den = self.a.numerator * q, self.a.denominator * q
        rise = slope.numerator * self.a.denominator
        value = {p: ONE if base + rise * p >= den else Fraction(base + rise * p, den) for p in set(ps)}
        return [value[p] for p in ps]


def make_segment(
    delta: Modulus,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    a: Fraction,
    b: Fraction,
) -> SegmentConnective:
    """Validated segment constructor; raises ValueError naming the violated
    side condition."""
    xs = tuple(require_unit(Fraction(v), "anchor coordinate") for v in x)
    ys = tuple(require_unit(Fraction(v), "anchor coordinate") for v in y)
    if len(xs) != delta.arity or len(ys) != delta.arity:
        raise ValueError("anchor arity must match the modulus arity")
    a = require_unit(Fraction(a), "a")
    b = require_unit(Fraction(b), "b")
    if a > b:
        raise ValueError(f"need a <= b, got a={format_rational(a)} > b={format_rational(b)}")
    seg = SegmentConnective(delta, xs, ys, a, b)
    if seg.span == 0:
        if a != b:
            raise ValueError(
                "anchors are modulus-indistinguishable "
                f"(D(pi(y-x)) = 0) so a = b is required; got "
                f"a={format_rational(a)}, b={format_rational(b)}"
            )
    elif b > a + seg.span:
        raise ValueError(
            f"side condition violated: b = {format_rational(b)} > "
            f"{format_rational(a)} + {format_rational(seg.span)} = a + D(pi(y-x))"
        )
    return seg


def segment_norm_bound(
    s1: SegmentConnective, s2: SegmentConnective, grid: RatGrid
) -> Fraction:
    """Exact upper bound on the uniform distance of two nondegenerate
    segments over the same modulus:

        |a - a'| + slope * D(x - x') + M * |slope - slope'|

    with M the maximum of the modulus on the [0,1]^k check grid."""
    if s1.delta != s2.delta:
        raise ValueError("segments must share their modulus")
    if s1.degenerate or s2.degenerate:
        raise ValueError("norm bound needs nondegenerate segments")
    if grid.dimension != s1.arity:
        raise ValueError("grid dimension must match the segment arity")
    m_max = max(s1.delta(p) for p in grid.points())
    sl1, sl2 = s1.slope(), s2.slope()
    return (
        abs(s1.a - s2.a)
        + sl1 * s1.delta(pi_fold(vec_sub(s1.x, s2.x)))
        + m_max * abs(sl1 - sl2)
    )
