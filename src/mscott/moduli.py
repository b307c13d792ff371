"""Moduli of uniform continuity and their algebra.

A modulus of arity n is a nondecreasing, subadditive function
``(Q^>=0)^n -> Q^>=0`` with value 0 at the origin.  Everything here is
finitely presented so that evaluation at rational points is exact:

* closed forms: ``Linear``, ``CappedLinear``, ``PiecewiseConcave``,
  ``MaxOf`` (restricted), ``Zero``;
* closure forms: ``Compose`` (composition of moduli is a modulus) and
  ``PolyhedralMax`` (a max of nonnegative linear forms, which is the
  exact value function of the induced-modulus linear program);
* ``EnvelopeTable``: the truncated largest-modulus-below envelope of a
  sampled function, certified on its sample window.

``check_modulus`` verifies the defining inequalities exhaustively on a
rational grid; failures are data, not exceptions.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, Sequence

from .rationals import (
    ONE,
    ZERO,
    RatGrid,
    Vec,
    format_rational,
    format_vec,
    vec_clip,
    vec_le,
)


class ModulusWindowError(ValueError):
    """Evaluation requested outside the certified window of a tabulated modulus."""


def pi_fold(xs: Sequence[Fraction]) -> Vec:
    """Coordinatewise absolute value."""
    return tuple(abs(Fraction(x)) for x in xs)


# ---------------------------------------------------------------------------
# Modulus forms
# ---------------------------------------------------------------------------


class Modulus:
    """Base class; subclasses are immutable and evaluate exactly."""

    arity: int

    def __call__(self, xs: Sequence[Fraction]) -> Fraction:
        if len(xs) != self.arity:
            raise ValueError(
                f"modulus of arity {self.arity} applied to {len(xs)} arguments"
            )
        return self._eval(tuple(Fraction(x) for x in xs))

    def _eval(self, xs: Vec) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(Modulus):
    """x |-> sum_i c_i * x_i with nonnegative coefficients."""

    coeffs: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if any(c < 0 for c in self.coeffs):
            raise ValueError("Linear modulus needs nonnegative coefficients")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def _eval(self, xs: Vec) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, xs)), ZERO)


@dataclass(frozen=True)
class CappedLinear(Modulus):
    """x |-> min(cap, sum_i c_i * x_i)."""

    cap: Fraction
    coeffs: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "cap", Fraction(self.cap))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("CappedLinear modulus needs nonnegative coefficients")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def _eval(self, xs: Vec) -> Fraction:
        return min(self.cap, sum((c * x for c, x in zip(self.coeffs, xs)), ZERO))


def interpolate(points: Sequence[tuple[Fraction, Fraction]], t: Fraction) -> Fraction:
    """The piecewise-linear map through ``points`` (abscissae increasing)
    at t; past the last point the last piece continues."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if t <= x1:
            break
    return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


@dataclass(frozen=True)
class PiecewiseConcave(Modulus):
    """A 1-d nondecreasing concave piecewise-linear map applied to sum_i c_i x_i.

    Breakpoints start at (0,0); beyond the last breakpoint the final
    slope continues.  Concavity plus monotonicity plus value 0 at 0
    make the composite subadditive by construction.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    coeffs: Vec = (ONE,)

    def __post_init__(self) -> None:
        bps = tuple((Fraction(x), Fraction(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if bps[0] != (ZERO, ZERO):
            raise ValueError("piecewise-concave modulus must start at (0,0)")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        prev_slope = None
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise ValueError("breakpoint abscissae must increase")
            if y1 < y0:
                raise ValueError("values must be nondecreasing")
            slope = (y1 - y0) / (x1 - x0)
            if prev_slope is not None and slope > prev_slope:
                raise ValueError(
                    "not concave: slope increases at "
                    f"x={format_rational(x0)} ({format_rational(prev_slope)} -> "
                    f"{format_rational(slope)})"
                )
            prev_slope = slope

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def first_slope(self) -> Fraction:
        (x0, y0), (x1, y1) = self.breakpoints[0], self.breakpoints[1]
        return (y1 - y0) / (x1 - x0)

    def _eval(self, xs: Vec) -> Fraction:
        return interpolate(self.breakpoints, sum((c * x for c, x in zip(self.coeffs, xs)), ZERO))


@dataclass(frozen=True)
class Zero(Modulus):
    """The constant-0 modulus."""

    _arity: int

    @property
    def arity(self) -> int:
        return self._arity

    def _eval(self, xs: Vec) -> Fraction:
        return ZERO


def _direction(m: Modulus) -> Vec | None:
    """Coefficient direction of a linear-family operand; None for Zero."""
    if isinstance(m, (Linear, CappedLinear, PiecewiseConcave)):
        return m.coeffs
    if isinstance(m, Zero):
        return None
    raise ValueError(f"MaxOf does not accept operand of type {type(m).__name__}")


def _proportional(u: Vec, v: Vec) -> bool:
    if any(u) != any(v):
        return False
    return all(a * d == b * c for (a, b), (c, d) in combinations(zip(u, v), 2)) and all(
        (a == 0) == (b == 0) for a, b in zip(u, v)
    )


@dataclass(frozen=True)
class MaxOf(Modulus):
    """Pointwise max of linear-family moduli whose coefficient vectors are
    pairwise proportional.  The restriction is validated at construction."""

    operands: tuple[Modulus, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        object.__setattr__(self, "operands", ops)
        if not ops:
            raise ValueError("MaxOf needs at least one operand")
        n = ops[0].arity
        if any(op.arity != n for op in ops):
            raise ValueError("MaxOf operands must share an arity")
        dirs = [d for d in map(_direction, ops) if d is not None]
        for u, v in combinations(dirs, 2):
            if not _proportional(u, v):
                raise ValueError(
                    "MaxOf operands must have identical coefficients up to scaling"
                )

    @property
    def arity(self) -> int:
        return self.operands[0].arity

    def _eval(self, xs: Vec) -> Fraction:
        return max(op._eval(xs) for op in self.operands)


@dataclass(frozen=True)
class Compose(Modulus):
    """outer(inner_0(x), ..., inner_{m-1}(x)).

    A composition of moduli is again a modulus (monotone + subadditive
    compose), so this form is valid by construction.
    """

    outer: Modulus
    inners: tuple[Modulus, ...]

    def __post_init__(self) -> None:
        inners = tuple(self.inners)
        object.__setattr__(self, "inners", inners)
        if len(inners) != self.outer.arity:
            raise ValueError("Compose: number of inners must equal outer arity")
        if inners:
            n = inners[0].arity
            if any(m.arity != n for m in inners):
                raise ValueError("Compose: inners must share an arity")

    @property
    def arity(self) -> int:
        return self.inners[0].arity if self.inners else 0

    def _eval(self, xs: Vec) -> Fraction:
        return self.outer._eval(tuple(m._eval(xs) for m in self.inners))


@dataclass(frozen=True)
class PolyhedralMax(Modulus):
    """max over rows r of r . x, all coefficients nonnegative.

    This is the value-function form produced by the exact induced-modulus
    computation; a max of nonnegative linear forms is a modulus.
    """

    rows: tuple[Vec, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("PolyhedralMax needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("rows must share a length")
        if any(c < 0 for r in rows for c in r):
            raise ValueError("PolyhedralMax rows must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.rows[0])

    def _eval(self, xs: Vec) -> Fraction:
        return max(sum((c * x for c, x in zip(row, xs)), ZERO) for row in self.rows)


def is_zero_modulus(m: Modulus) -> bool:
    """Whether m is identically zero: its linear upper row dominates
    m >= 0, so a zero row pins m to 0.  A form with no row counts as nonzero."""
    row = linear_upper_row(m)
    return row is not None and not any(row)


def projection(n: int, i: int) -> Linear:
    """The i-th coordinate projection as an n-ary modulus."""
    return Linear(tuple(ONE if j == i else ZERO for j in range(n)))


def _compose_rows(outer: Vec, inners: Sequence[Vec], n: int) -> Vec:
    """The n-ary row of x |-> outer . (inner_i . x)_i."""
    return tuple(sum((c * row[j] for c, row in zip(outer, inners)), ZERO) for j in range(n))


def simplify_modulus(m: Modulus) -> Modulus:
    """Collapse compositions of linear-family forms; semantics-preserving."""
    if isinstance(m, Compose):
        outer = simplify_modulus(m.outer)
        inners = tuple(simplify_modulus(i) for i in m.inners)
        if is_zero_modulus(outer) or all(is_zero_modulus(i) for i in inners):
            return Zero(inners[0].arity if inners else 0)
        n = inners[0].arity
        if all(
            isinstance(i, Linear) and i.coeffs == projection(n, j).coeffs
            for j, i in enumerate(inners)
        ) and len(inners) == n:
            return outer
        if all(isinstance(i, (Zero, Linear)) for i in inners):
            rows = [linear_upper_row(i) for i in inners]  # exact for these forms
            if isinstance(outer, Linear):
                return simplify_modulus(Linear(_compose_rows(outer.coeffs, rows, n)))
            if isinstance(outer, CappedLinear):
                return CappedLinear(outer.cap, _compose_rows(outer.coeffs, rows, n))
            if isinstance(outer, PiecewiseConcave):
                return PiecewiseConcave(outer.breakpoints, _compose_rows(outer.coeffs, rows, n))
            if isinstance(outer, PolyhedralMax):
                return PolyhedralMax(tuple(_compose_rows(prow, rows, n) for prow in outer.rows))
        return Compose(outer, inners)
    if isinstance(m, Linear) and is_zero_modulus(m):
        return Zero(m.arity)
    return m


def linear_upper_row(m: Modulus) -> Vec | None:
    """A nonnegative row c with m(x) <= c . x everywhere, or None.

    Exact (an equality) for Linear; for capped and concave forms it is
    the linearization at the origin, which dominates the form.
    """
    if isinstance(m, (Linear, CappedLinear)):
        return m.coeffs
    if isinstance(m, PiecewiseConcave):
        s = m.first_slope()
        return tuple(s * c for c in m.coeffs)
    if isinstance(m, Zero):
        return (ZERO,) * m.arity
    if isinstance(m, MaxOf):
        rows = [linear_upper_row(op) for op in m.operands]  # MaxOf operands all have rows
        return tuple(max(r[j] for r in rows) for j in range(m.arity))
    if isinstance(m, PolyhedralMax):
        return tuple(max(r[j] for r in m.rows) for j in range(m.arity))
    if isinstance(m, Compose):
        outer_row = linear_upper_row(m.outer)
        inner_rows = [linear_upper_row(i) for i in m.inners]
        if outer_row is None or any(r is None for r in inner_rows):
            return None
        return _compose_rows(outer_row, inner_rows, m.arity)
    return None


# ---------------------------------------------------------------------------
# Modulus checking on a grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusFailure:
    kind: str  # "zero" | "monotone" | "subadditive"
    r: Vec
    s: Vec | None
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ModulusCheckReport:
    passed: bool
    failures: tuple[ModulusFailure, ...]

    def first(self) -> ModulusFailure | None:
        return self.failures[0] if self.failures else None


def check_modulus(m: Modulus, grid: RatGrid, max_failures: int = 5) -> ModulusCheckReport:
    """Verify m(0)=0 plus, for all grid pairs r,s whose sum stays inside the
    grid window, m(r) <= m(r+s) <= m(r) + m(s).

    Restricting to in-window sums keeps the check meaningful for
    tabulated envelopes, whose certificate covers exactly their window.
    """
    if grid.dimension != m.arity:
        raise ValueError("grid dimension must match modulus arity")
    failures: list[ModulusFailure] = []
    origin = (ZERO,) * m.arity
    corner = (grid.bound,) * m.arity
    cache: dict[Vec, Fraction] = {}

    def ev(p: Vec) -> Fraction:
        if p not in cache:
            cache[p] = m(p)
        return cache[p]

    z = ev(origin)
    if z != 0:
        failures.append(ModulusFailure("zero", origin, None, z, ZERO))
    pts = list(grid.points())
    for r in pts:
        if failures and len(failures) >= max_failures:
            break
        for s in pts:
            t = tuple(a + b for a, b in zip(r, s))
            if not vec_le(t, corner):
                continue
            vr, vs, vt = ev(r), ev(s), ev(t)
            if vr > vt:
                failures.append(ModulusFailure("monotone", r, s, vr, vt))
            if vt > vr + vs:
                failures.append(ModulusFailure("subadditive", r, s, vt, vr + vs))
            if len(failures) >= max_failures:
                break
    return ModulusCheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Weak moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumWeakModulus:
    """The weak modulus x |-> sum_i x_i; its arity-n slice is
    Linear(1, ..., 1).  Slices are consistent by construction."""

    name = "sum"

    def slice(self, n: int) -> Modulus:
        if n < 0:
            raise ValueError("slice arity must be >= 0")
        return Linear((ONE,) * n)


def weak_modulus(name: str) -> SumWeakModulus:
    """Look up a shipped weak modulus by name (CLI surface)."""
    if name == "sum":
        return SumWeakModulus()
    raise ValueError(f"unknown weak modulus {name!r} (shipped: 'sum')")


# ---------------------------------------------------------------------------
# Largest-modulus-below envelope
# ---------------------------------------------------------------------------

_AXIS_LIMIT = 4096


def axis_size(xs: set[Fraction], k_max: int) -> tuple[Fraction, int]:
    """The spacing of the coarsest uniform axis through the 1-d sample
    coordinates ``xs`` (1 when all are 0), and its point count up to k_max
    times the largest.  Refuses an axis past ``_AXIS_LIMIT`` points."""
    step = Fraction(math.gcd(*(x.numerator for x in xs)) or 1,
                    math.lcm(*(x.denominator for x in xs)))
    # Decompositions of up to k_max sample points reach k_max times the
    # largest sample; tabulate the whole coverable range.
    count = int(k_max * max(xs) / step) + 1
    if count > _AXIS_LIMIT:
        raise ModulusWindowError(
            f"sample coordinates refine to {count} axis points; use a coarser grid"
        )
    return step, count


@dataclass(frozen=True)
class EnvelopeTable(Modulus):
    """The truncated largest-modulus-below envelope of sampled data.

    The value at x is the minimum of sum_i f(p_i) over multisets of at
    most ``k_max`` sample points p_i with x <= sum_i p_i coordinatewise.
    Finitely many sample points and the k_max truncation make this an
    over-approximation of the true envelope (never below it); refining
    the samples or raising k_max can only lower it.

    Arity-1 tables evaluate anywhere inside their window by linear
    interpolation on a uniform refinement, which preserves monotonicity
    and grid subadditivity.  Higher arities evaluate by the decomposition
    minimum itself, which is certified at sample points; off-sample
    queries are exact values of the truncated formula.
    """

    samples: tuple[tuple[Vec, Fraction], ...]
    k_max: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.samples:
            raise ValueError("need sample data")

    @property
    def arity(self) -> int:
        return len(self.samples[0][0])

    @property
    def window(self) -> Vec:
        """Per-coordinate reach of k_max-point decompositions (the certified
        evaluation region)."""
        n = self.arity
        return tuple(self.k_max * max(p[j] for p, _ in self.samples) for j in range(n))

    # -- arity 1: uniform refinement + interpolation

    def _axis_table(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        if "axis" in self._cache:
            return self._cache["axis"]
        xs = {p[0] for p, _ in self.samples}
        step, count = axis_size(xs, self.k_max)
        axis = tuple(i * step for i in range(count))
        fvals = {p[0]: v for p, v in self.samples}
        INF = None
        best: list[int | None] = [INF] * count
        best[0] = 0
        pos = [(int(x / step), fvals[x]) for x in xs if x > 0]
        # The min-plus sums run on integers over the values' common denominator.
        scale = math.lcm(*(v.denominator for _, v in pos))
        pos = [(pi, v.numerator * (scale // v.denominator)) for pi, v in pos]
        for _ in range(self.k_max):
            new = list(best)
            for pi, fv in pos:
                for i in range(count):
                    j = i - pi if i > pi else 0
                    prev = best[j]
                    if prev is None:
                        continue
                    cand = fv + prev
                    if new[i] is None or cand < new[i]:
                        new[i] = cand
            best = new
        if any(v is None for v in best):
            raise ModulusWindowError("k_max too small to cover the sample window")
        self._cache["axis"] = (axis, tuple(Fraction(v, scale) for v in best))  # type: ignore[arg-type]
        return self._cache["axis"]

    # -- general: memoized decomposition minimum

    def _cover(self, q: Vec, k: int) -> Fraction | None:
        if all(v == 0 for v in q):
            return ZERO
        if k == 0:
            return None
        memo = self._cache.setdefault("cover", {})
        key = (q, k)
        if key in memo:
            return memo[key]
        best: Fraction | None = None
        for p, fv in self.samples:
            if not any(pv > 0 and qv > 0 for pv, qv in zip(p, q)):
                continue
            rest = self._cover(vec_clip(tuple(a - b for a, b in zip(q, p))), k - 1)
            if rest is None:
                continue
            cand = fv + rest
            if best is None or cand < best:
                best = cand
        memo[key] = best
        return best

    def _eval(self, xs: Vec) -> Fraction:
        if any(x < 0 for x in xs):
            raise ValueError("moduli are defined on nonnegative tuples")
        if self.arity == 1:
            axis, vals = self._axis_table()
            x = xs[0]
            if x == 0:
                return ZERO
            if x > axis[-1]:
                raise ModulusWindowError(
                    f"{format_rational(x)} outside certified window "
                    f"[0, {format_rational(axis[-1])}]"
                )
            step = axis[1] - axis[0] if len(axis) > 1 else axis[0]
            lo = int(x / step)
            if axis[lo] == x:
                return vals[lo]
            frac = (x - axis[lo]) / step
            return vals[lo] + (vals[lo + 1] - vals[lo]) * frac
        v = self._cover(xs, self.k_max)
        if v is None:
            raise ModulusWindowError(
                f"{format_vec(xs)} not coverable by {self.k_max} sample points"
            )
        return v

    def table(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Envelope values at the sample points, sorted."""
        return tuple((p, self(p)) for p in sorted(p for p, _ in self.samples))


def largest_modulus_below(
    f: Mapping[Vec, Fraction] | Callable[[Vec], Fraction],
    k_max: int,
    grid: RatGrid | None = None,
) -> EnvelopeTable:
    """Truncated largest-modulus-below envelope of sampled data.

    ``f`` is either an explicit mapping from sample points to exact
    values, or a callable sampled on ``grid``.  Rejects data with
    f(0) != 0, negative values, or a decrease along a comparable sample
    pair, and 1-d samples on an axis past ``_AXIS_LIMIT`` points (from
    the step and bound of a 1-d grid).
    """
    if callable(f) and not isinstance(f, Mapping):
        if grid is None:
            raise ValueError("a callable target needs a grid to sample on")
        if grid.dimension == 1:
            # all grid points but the largest, the bound, are multiples of the step
            axis_size({min(grid.step, grid.bound), grid.bound}, k_max)
        samples = {p: Fraction(f(p)) for p in grid.points()}
    else:
        samples = {tuple(Fraction(x) for x in p): Fraction(v) for p, v in f.items()}
    if not samples:
        raise ValueError("no sample points")
    n = len(next(iter(samples)))
    origin = (ZERO,) * n
    if origin not in samples:
        raise ValueError("samples must include the origin")
    if samples[origin] != 0:
        raise ValueError("f(0) must be 0")
    if n == 1:
        axis_size({p[0] for p in samples}, k_max)
    items = sorted(samples.items())
    for p, v in items:
        if v < 0:
            raise ValueError(f"negative sample value at {format_vec(p)}")
    decrease = _first_decrease(items)
    if decrease is not None:
        (p, vp), (q, vq) = decrease
        raise ValueError(
            f"f decreases from {format_vec(p)} to {format_vec(q)}: "
            f"{format_rational(vp)} > {format_rational(vq)}"
        )
    return EnvelopeTable(tuple(items), k_max)


def _first_decrease(items: list[tuple[Vec, Fraction]]) -> tuple | None:
    """The first pair of sorted samples p <= q (coordinatewise) with
    f(p) > f(q), scanning p and then q in order."""
    if len(items[0][0]) == 1:
        # Samples on a line are totally ordered: the q above p are the later
        # samples, so one pass over suffix minima finds the first failing p.
        low = list(accumulate((v for _, v in reversed(items)), min))[::-1]
        for i in range(len(items) - 1):
            vp = items[i][1]
            if low[i + 1] < vp:
                return items[i], next(s for s in items[i + 1 :] if s[1] < vp)
        return None
    for p, vp in items:
        for q, vq in items:
            if vec_le(p, q) and vp > vq:
                return (p, vp), (q, vq)
    return None


# ---------------------------------------------------------------------------
# Induced connective modulus
# ---------------------------------------------------------------------------


def induced_connective_modulus(
    atomic_moduli: Sequence[Modulus],
    omega: SumWeakModulus,
    k_max: int,
    grid: RatGrid,
) -> EnvelopeTable:
    """Grid computation of the largest modulus a connective over the given
    atomics must respect for the composite to respect ``omega``.

    Samples f(r) = min{ Omega_n(x) : x in grid, Delta_i(x) >= r_i for
    all i } at the vectors of atomic-modulus values achieved on the
    grid, then takes the truncated envelope.  The result is certified at
    its sample points and never below the true induced modulus.
    """
    deltas = list(atomic_moduli)
    if not deltas:
        raise ValueError("need at least one atomic modulus")
    n = deltas[0].arity
    if any(d.arity != n for d in deltas):
        raise ValueError("atomic moduli must share an arity")
    if grid.dimension != n:
        raise ValueError("grid dimension must equal the atomic arity")
    pts = list(grid.points())
    achieved: list[Vec] = []
    weights: list[Fraction] = []
    omega_n = omega.slice(n)
    for x in pts:
        achieved.append(tuple(d(x) for d in deltas))
        weights.append(omega_n(x))
    for i, d in enumerate(deltas):
        if all(v[i] == 0 for v in achieved):
            raise ValueError(
                f"atomic modulus #{i} vanishes on the whole grid; apply the "
                "constant-substitution reduction before inducing"
            )
    f: dict[Vec, Fraction] = {}
    for v in set(achieved):
        f[v] = min(w for r, w in zip(achieved, weights) if vec_le(v, r))
    return largest_modulus_below(f, k_max)


# ---------------------------------------------------------------------------
# Exact induced modulus for linear-family atomics (LP value function)
# ---------------------------------------------------------------------------


def _solve_square(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None for singular systems."""
    k = len(b)
    m = [row[:] + [bv] for row, bv in zip(a, b)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][k] for r in range(k)]


def induced_modulus_exact(rows: Sequence[Vec]) -> Modulus:
    """Exact induced modulus when every atomic modulus is dominated by a
    linear row (rows[i] . x >= Delta_i(x)).

    The induced value at r under the sum weak modulus is the linear program
    min{ sum(x) : rows . x >= r, x >= 0 }, whose value function
    is, by duality, the maximum of r . lam over the vertices lam of
    { lam >= 0 : rows^T lam <= 1 }.  That maximum of nonnegative
    linear forms is itself a modulus and is returned in closed form.
    """
    rows = [tuple(Fraction(c) for c in row) for row in rows]
    k = len(rows)
    if k == 0:
        raise ValueError("need at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows must share a length")
    if any(not any(r) for r in rows):
        raise ValueError("a row is identically zero; reduce the tuple first")
    # Constraint system G lam <= h:  columns of `rows` plus lam >= 0.
    cons: list[tuple[Vec, Fraction]] = []
    for j in range(n):
        cons.append((tuple(rows[i][j] for i in range(k)), ONE))
    for i in range(k):
        cons.append((tuple(-ONE if t == i else ZERO for t in range(k)), ZERO))
    vertices: set[Vec] = set()
    for subset in combinations(range(len(cons)), k):
        a = [list(cons[c][0]) for c in subset]
        b = [cons[c][1] for c in subset]
        sol = _solve_square(a, b)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        ok = all(
            sum((g * v for g, v in zip(gr, sol)), ZERO) <= h for gr, h in cons
        )
        if ok:
            vertices.add(tuple(sol))
    verts = sorted(vertices)
    # Drop componentwise-dominated rows; they never achieve the max.
    kept = [
        v
        for v in verts
        if not any(w != v and vec_le(v, w) for w in verts)
    ]
    if len(kept) == 1:
        return simplify_modulus(Linear(kept[0]))
    return PolyhedralMax(tuple(kept))
