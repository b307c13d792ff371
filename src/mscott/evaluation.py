"""Exact interpretation of terms and formulas in a finite structure.

Sup/inf quantifiers are exact max/min over the (finite) point set; no
approximation parameter exists on this path.  Nothing is cached: memory
stays at the depth of the formula, not the number of (subformula,
assignment) pairs a quantifier visits.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import format_rational
from .structures import PreStructure
from .syntax import (
    Atomic,
    ConstF,
    ConstTerm,
    Formula,
    Inf,
    MaxF,
    MinF,
    PwlF,
    SegF,
    Sup,
    Term,
    Var,
)


class UnassignedVariable(ValueError):
    pass


Env = tuple[str | None, ...]


class Evaluator:
    """Tree-walking evaluator over one structure, with optional quantifier
    domain restriction (used by the dense-subset agreement check)."""

    def __init__(self, structure: PreStructure, domain: tuple[str, ...] | None = None):
        self.s = structure
        self.domain = domain if domain is not None else structure.points

    def term(self, t: Term, env: Env) -> str:
        if isinstance(t, Var):
            if t.index >= len(env) or env[t.index] is None:
                raise UnassignedVariable(f"v{t.index} has no assigned point")
            return env[t.index]
        if isinstance(t, ConstTerm):
            try:
                return self.s.constants[t.name]
            except KeyError:
                raise UnassignedVariable(f"constant {t.name} unassigned") from None
        table = self.s.functions[t.function]
        args = tuple(self.term(a, env) for a in t.args)
        return table[args]

    def formula(self, phi: Formula, env: Env) -> Fraction:
        if isinstance(phi, Atomic):
            pts = tuple(self.term(t, env) for t in phi.args)
            if phi.relation == "d":
                return self.s.metric[pts]
            return self.s.relations[phi.relation][pts]
        if isinstance(phi, ConstF):
            return phi.value
        if isinstance(phi, MinF):
            return min(self.formula(f, env) for f in phi.items)
        if isinstance(phi, MaxF):
            return max(self.formula(f, env) for f in phi.items)
        if isinstance(phi, PwlF):
            return phi.apply(self.formula(phi.arg, env))
        if isinstance(phi, SegF):
            return phi.segment(tuple(self.formula(f, env) for f in phi.args))
        if isinstance(phi, (Sup, Inf)):
            i = phi.var
            base = list(env)
            while len(base) <= i:
                base.append(None)
            vals = []
            for x in self.domain:
                base[i] = x
                vals.append(self.formula(phi.body, tuple(base)))
            return max(vals) if isinstance(phi, Sup) else min(vals)
        raise TypeError(type(phi))


def subset_density(s: PreStructure, subset: tuple[str, ...]) -> Fraction:
    """max over points of the distance to the nearest subset point."""
    if not subset:
        raise ValueError("subset must be nonempty")
    return max(min(s.metric[(p, q)] for q in subset) for p in s.points)


def eval_dense_agreement(
    phi: Formula,
    s: PreStructure,
    subset: tuple[str, ...],
    point_tuple: tuple[str, ...],
    resolution: Fraction,
) -> tuple[Fraction, Fraction]:
    """Evaluate with quantifiers restricted to a metrically dense subset and
    over the full structure; returns (subset value, full value).

    The subset must be contained in the structure, contain the tuple,
    and be dense at the stated resolution.  The caller (test harness)
    bounds the difference by the canonical modulus at the resolution.
    """
    missing = [q for q in subset if q not in s.points]
    if missing:
        raise ValueError(f"subset point {missing[0]!r} not in the structure")
    if any(p not in subset for p in point_tuple):
        raise ValueError("the evaluation tuple must be drawn from the subset")
    dens = subset_density(s, subset)
    if dens > resolution:
        raise ValueError(
            f"subset is only {format_rational(dens)}-dense, needed "
            f"{format_rational(Fraction(resolution))}"
        )
    sub_val = Evaluator(s, domain=subset).formula(phi, point_tuple)
    full_val = Evaluator(s).formula(phi, point_tuple)
    return sub_val, full_val
