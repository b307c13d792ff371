"""Exact interpretation of terms and formulas in a finite structure.

Sup/inf quantifiers are exact max/min over the (finite) point set; no
approximation parameter exists on this path.  Nothing is cached: memory
stays at the depth of the formula, not the number of (subformula,
assignment) pairs a quantifier visits.
"""

from __future__ import annotations

from fractions import Fraction

from .structures import PreStructure
from .syntax import (
    METRIC_SYMBOL,
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
    """Tree-walking evaluator over one structure; quantifiers range over
    all of its points."""

    def __init__(self, structure: PreStructure):
        self.s = structure

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
            if phi.relation == METRIC_SYMBOL:
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
            for x in self.s.points:
                base[i] = x
                vals.append(self.formula(phi.body, tuple(base)))
            return max(vals) if isinstance(phi, Sup) else min(vals)
        raise TypeError(type(phi))
