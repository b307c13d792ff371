"""Signatures, terms, and the formula hierarchy.

Formulas are built from atomics by exactly-evaluable connectives
(constants, piecewise-linear reshaping, lattice min/max, and segment
connectives) plus sup/inf quantifiers.  Basic formulas are the
quantifier-free ones; each is a connective applied to its distinct
atomic subformulas, and ``eval_connective`` evaluates it at their values.

Every term and formula carries a canonically associated modulus over its
free-variable coordinates, computed compositionally:

* variable -> coordinate projection, constant -> zero;
* function/relation application -> the symbol's modulus composed with
  the argument moduli;
* ``d(t, t)`` with syntactically equal sides -> zero (the atomic is
  constantly 0 in every structure);
* connective -> the connective's modulus composed with the subformula
  moduli (min/max are 1-Lipschitz in each argument, a piecewise-linear
  map contributes its Lipschitz constant, a segment contributes its
  defining modulus);
* sup/inf over v_i -> the body modulus with coordinate i zeroed out.

Interpretations respect these moduli in every validated structure; the
test suite checks that exhaustively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .moduli import (
    CappedLinear,
    Compose,
    Linear,
    Modulus,
    Zero,
    projection,
    simplify_modulus,
)
from .rationals import ONE, require_unit
from .segments import SegmentConnective

METRIC_SYMBOL = "d"
_VAR_RE = re.compile(r"^v(\d+)$")


@dataclass(frozen=True)
class RelationSymbol:
    name: str
    arity: int
    modulus: Modulus


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arity: int
    modulus: Modulus


@dataclass(frozen=True)
class Signature:
    """Relation/function/constant symbols with their moduli.  The metric
    symbol ``d`` is always present implicitly, with modulus Linear(1,1)."""

    relations: tuple[RelationSymbol, ...] = ()
    functions: tuple[FunctionSymbol, ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [METRIC_SYMBOL]
        for r in self.relations:
            if r.modulus.arity != r.arity:
                raise ValueError(f"relation {r.name}: modulus arity mismatch")
            names.append(r.name)
        for f in self.functions:
            if f.modulus.arity != f.arity:
                raise ValueError(f"function {f.name}: modulus arity mismatch")
            names.append(f.name)
        names.extend(self.constants)
        seen = set()
        for n in names:
            if n in seen:
                raise ValueError(f"duplicate symbol name {n!r}")
            if _VAR_RE.match(n):
                raise ValueError(f"symbol name {n!r} collides with variable syntax")
            seen.add(n)

    def relation(self, name: str) -> RelationSymbol:
        if name == METRIC_SYMBOL:
            return METRIC_RELATION
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(f"unknown relation symbol {name!r}")

    def function(self, name: str) -> FunctionSymbol:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"unknown function symbol {name!r}")

    def is_constant(self, name: str) -> bool:
        return name in self.constants


METRIC_RELATION = RelationSymbol(METRIC_SYMBOL, 2, Linear((ONE, ONE)))

EMPTY_SIGNATURE = Signature()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class ConstTerm:
    name: str


@dataclass(frozen=True)
class Apply:
    function: str
    args: tuple["Term", ...]


Term = Var | ConstTerm | Apply


def term_free_vars(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.index,))
    if isinstance(t, ConstTerm):
        return frozenset()
    return frozenset().union(*(term_free_vars(a) for a in t.args)) if t.args else frozenset()


def term_size(t: Term) -> int:
    if isinstance(t, Apply):
        return 1 + sum(term_size(a) for a in t.args)
    return 1


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atomic:
    relation: str  # relation symbol name, or "d"
    args: tuple[Term, ...]


@dataclass(frozen=True)
class ConstF:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", require_unit(Fraction(self.value), "constant"))


@dataclass(frozen=True)
class MinF:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class MaxF:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class PwlF:
    """A continuous piecewise-linear reshaping of one subformula.

    Breakpoints cover [0,1] with values in [0,1]; monotonicity is not
    required, so e.g. min(1, 3t) is expressible."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    arg: "Formula"

    def __post_init__(self) -> None:
        bps = tuple((Fraction(x), Fraction(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2 or bps[0][0] != 0 or bps[-1][0] != 1:
            raise ValueError("pwl breakpoints must span [0,1]")
        for (x0, _), (x1, _) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise ValueError("pwl abscissae must increase")
        for x, y in bps:
            require_unit(x, "pwl abscissa")
            require_unit(y, "pwl value")

    def apply(self, t: Fraction) -> Fraction:
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            if t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        return self.breakpoints[-1][1]

    def lipschitz(self) -> Fraction:
        return max(
            abs((y1 - y0) / (x1 - x0))
            for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:])
        )


@dataclass(frozen=True)
class SegF:
    """A segment connective applied to subformulas (one per modulus coordinate)."""

    segment: SegmentConnective
    args: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.segment.arity:
            raise ValueError("segment arity must match the number of arguments")


@dataclass(frozen=True)
class Sup:
    var: int
    body: "Formula"


@dataclass(frozen=True)
class Inf:
    var: int
    body: "Formula"


Formula = Atomic | ConstF | MinF | MaxF | PwlF | SegF | Sup | Inf


def formula_free_vars(phi: Formula) -> frozenset[int]:
    if isinstance(phi, Atomic):
        return frozenset().union(*(term_free_vars(t) for t in phi.args)) if phi.args else frozenset()
    if isinstance(phi, ConstF):
        return frozenset()
    if isinstance(phi, (MinF, MaxF)):
        return frozenset().union(*(formula_free_vars(f) for f in phi.items))
    if isinstance(phi, PwlF):
        return formula_free_vars(phi.arg)
    if isinstance(phi, SegF):
        return frozenset().union(*(formula_free_vars(f) for f in phi.args)) if phi.args else frozenset()
    if isinstance(phi, (Sup, Inf)):
        return formula_free_vars(phi.body) - {phi.var}
    raise TypeError(type(phi))


def is_basic(phi: Formula) -> bool:
    """Basic = built from atomics and connectives only (no sup/inf)."""
    return not any(isinstance(f, (Sup, Inf)) for f in subformulas(phi))


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    if isinstance(phi, (MinF, MaxF)):
        for f in phi.items:
            yield from subformulas(f)
    elif isinstance(phi, PwlF):
        yield from subformulas(phi.arg)
    elif isinstance(phi, SegF):
        for f in phi.args:
            yield from subformulas(f)
    elif isinstance(phi, (Sup, Inf)):
        yield from subformulas(phi.body)


# ---------------------------------------------------------------------------
# Canonical modulus
# ---------------------------------------------------------------------------


def _span_arity(x: Term | Formula) -> int:
    fv = term_free_vars(x) if isinstance(x, (Var, ConstTerm, Apply)) else formula_free_vars(x)
    return (max(fv) + 1) if fv else 0


def canonical_term_modulus(t: Term, sig: Signature, n: int) -> Modulus:
    if isinstance(t, Var):
        if t.index >= n:
            raise ValueError(f"variable v{t.index} outside the {n}-coordinate frame")
        return projection(n, t.index)
    if isinstance(t, ConstTerm):
        return Zero(n)
    f = sig.function(t.function)
    inners = tuple(canonical_term_modulus(a, sig, n) for a in t.args)
    return simplify_modulus(Compose(f.modulus, inners))


def canonical_modulus(x: Term | Formula, sig: Signature, n: int | None = None) -> Modulus:
    """Modulus over the first n variable coordinates that the interpretation
    of ``x`` respects in every structure (n defaults to the free span)."""
    if n is None:
        n = _span_arity(x)
    if isinstance(x, (Var, ConstTerm, Apply)):
        return canonical_term_modulus(x, sig, n)
    phi = x
    if isinstance(phi, Atomic):
        if phi.relation == METRIC_SYMBOL and phi.args[0] == phi.args[1]:
            return Zero(n)
        r = sig.relation(phi.relation)
        inners = tuple(canonical_term_modulus(t, sig, n) for t in phi.args)
        return simplify_modulus(Compose(r.modulus, inners))
    if isinstance(phi, ConstF):
        return Zero(n)
    if isinstance(phi, (MinF, MaxF)):
        inners = tuple(canonical_modulus(f, sig, n) for f in phi.items)
        return simplify_modulus(Compose(Linear((ONE,) * len(inners)), inners))
    if isinstance(phi, PwlF):
        lip = phi.lipschitz()
        if lip == 0:
            return Zero(n)
        inner = canonical_modulus(phi.arg, sig, n)
        return simplify_modulus(Compose(CappedLinear(ONE, (lip,)), (inner,)))
    if isinstance(phi, SegF):
        inners = tuple(canonical_modulus(f, sig, n) for f in phi.args)
        capped = Compose(CappedLinear(ONE, (ONE,)), (phi.segment.delta,))
        return simplify_modulus(Compose(capped, inners))
    if isinstance(phi, (Sup, Inf)):
        fv = formula_free_vars(phi.body)
        m = max(n, phi.var + 1, (max(fv) + 1) if fv else 0)
        body = canonical_modulus(phi.body, sig, m)
        # Zero the quantified coordinate (and any coordinate beyond the
        # requested frame), then view the result in the n-coordinate frame.
        inners = tuple(
            projection(n, j) if j != phi.var and j < n else Zero(n)
            for j in range(m)
        )
        return simplify_modulus(Compose(body, inners))
    raise TypeError(type(phi))


# ---------------------------------------------------------------------------
# Basic formulas as connectives over their atomics
# ---------------------------------------------------------------------------


def basic_atomics(phi: Formula) -> tuple[Atomic, ...]:
    """The distinct atomic subformulas of a basic formula, in order of
    first occurrence: the coordinates of its connective."""
    if not is_basic(phi):
        raise ValueError("basic_atomics only accepts quantifier-free formulas")
    return tuple(dict.fromkeys(f for f in subformulas(phi) if isinstance(f, Atomic)))


def eval_connective(phi: Formula, values: Mapping[Atomic, Fraction]) -> Fraction:
    """Exact value of a basic formula whose atomics take ``values``.

    With the atomics' values at a point of a structure this is the
    formula's value there; any point of [0,1]^k evaluates the connective
    itself."""
    if isinstance(phi, Atomic):
        return values[phi]
    if isinstance(phi, ConstF):
        return phi.value
    if isinstance(phi, MinF):
        return min(eval_connective(f, values) for f in phi.items)
    if isinstance(phi, MaxF):
        return max(eval_connective(f, values) for f in phi.items)
    if isinstance(phi, PwlF):
        return phi.apply(eval_connective(phi.arg, values))
    if isinstance(phi, SegF):
        return phi.segment(tuple(eval_connective(f, values) for f in phi.args))
    raise TypeError(type(phi))
