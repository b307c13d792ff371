"""Deterministic enumeration of the countable dense family of
weak-modulus-respecting basic formulas, the respects-check, and lattice
approximants of a modulus-respecting target.

For a fixed signature, weak modulus, and arity n the family interleaves,
by a diagonal over per-tuple streams, the lattice terms of segment
connectives over every tuple of at most ``MAX_TUPLE_LEN`` atomic
formulas in v0..v_{n-1}:

* the atomic pool drops atomics whose canonical modulus is identically
  zero (their value is pinned by the constant-substitution reduction;
  only ``d(t,t) = 0`` arises structure-free) and keeps one orientation
  of each metric atomic, ordered new-variable-last so the arity-n pool
  is a prefix of the arity-(n+1) pool;
* per tuple, the induced modulus is computed exactly as the value
  function of a small linear program over linear dominating rows of the
  atomic moduli.  That closed form is a certified lower bound for the
  largest modulus the connective may respect, so every emitted formula
  genuinely respects the weak modulus (not merely at grid resolution).
  Tuples with an atomic outside the linear family get no stream and are
  skipped; enumeration never calls the grid-resolution respects-check;
* each stream is a generator that works through data heights h = 1, 2,
  ...: the single segments of height h (rational anchors and endpoint
  values a < b of denominator at most h; a = b would only give the
  constant a), then the constants of height h, then binary meets and
  joins whose later operand was emitted at height h - 1.  No item
  repeats within a stream: singles differ in their data, constants in
  their height, meets and joins in their operand pair;
* diagonal j opens the stream of the j-th tuple and then takes one item
  from every open stream, oldest first.  Every height yields a new
  constant, so streams never run dry and the family is infinite unless
  no tuple has an induced modulus.

With an empty pool (e.g. arity 1 over the empty signature) the family
degenerates to constant formulas in height order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, product
from typing import Callable, Iterator, Sequence

from .moduli import (
    Modulus,
    SumWeakModulus,
    induced_connective_modulus,
    induced_modulus_exact,
    is_zero_modulus,
    linear_upper_row,
    pi_fold,
)
from .parser import print_formula, print_term
from .rationals import ONE, ZERO, RatGrid, Vec, format_vec, require_unit, vec_sub
from .segments import make_segment
from .syntax import (
    METRIC_SYMBOL,
    Apply,
    Atomic,
    ConstF,
    ConstTerm,
    Formula,
    MaxF,
    MinF,
    Signature,
    Term,
    Var,
    SegF,
    basic_atomics,
    canonical_modulus,
    eval_connective,
    is_basic,
    span_arity,
    term_size,
)

MAX_TUPLE_LEN = 3  # atomics per connective


# ---------------------------------------------------------------------------
# Atomic pool
# ---------------------------------------------------------------------------


def _terms(sig: Signature, arity: int, depth: int) -> list[Term]:
    base: list[Term] = [Var(i) for i in range(arity)]
    base.extend(ConstTerm(c) for c in sig.constants)
    out = list(base)
    for _ in range(depth):
        new: list[Term] = []
        for f in sig.functions:
            for args in product(out, repeat=f.arity):
                new.append(Apply(f.name, tuple(args)))
        out = out + new
    return out


def _term_key(t: Term) -> tuple:
    return (term_size(t), print_term(t))


def atomic_pool(sig: Signature, arity: int, term_depth: int = 1) -> list[Atomic]:
    """Atomic formulas in v0..v_{arity-1}, zero-modulus atomics dropped,
    metric atomics in one canonical orientation, new-variable-last order."""
    terms = sorted(_terms(sig, arity, term_depth), key=_term_key)
    atoms: list[Atomic] = []
    for i, t1 in enumerate(terms):
        for t2 in terms[i:]:
            atoms.append(Atomic(METRIC_SYMBOL, (t1, t2)))
    for r in sig.relations:
        for args in product(terms, repeat=r.arity):
            atoms.append(Atomic(r.name, tuple(args)))
    pool = [a for a in dict.fromkeys(atoms)
            if not is_zero_modulus(canonical_modulus(a, sig, arity))]
    rel_rank = {r.name: i + 1 for i, r in enumerate(sig.relations)}
    rel_rank[METRIC_SYMBOL] = 0
    pool.sort(
        key=lambda a: (
            span_arity(a),
            sum(term_size(t) for t in a.args),
            rel_rank[a.relation],
            print_formula(a),
        )
    )
    return pool


# ---------------------------------------------------------------------------
# Rational data of bounded height
# ---------------------------------------------------------------------------


def unit_rationals(height: int) -> list[Fraction]:
    """All p/q in [0,1] with q <= height, ascending."""
    vals = {ZERO, ONE}
    for q in range(2, height + 1):
        for p in range(1, q):
            vals.add(Fraction(p, q))
    return sorted(vals)


# ---------------------------------------------------------------------------
# Per-tuple streams
# ---------------------------------------------------------------------------


def _constants(h: int) -> Iterator[Formula]:
    """The constant formulas of data height h, ascending."""
    for q in unit_rationals(h):
        if q.denominator == h:
            yield ConstF(q)


def _singles(atomics: tuple[Atomic, ...], delta: Modulus, h: int) -> Iterator[Formula]:
    """The segments of data height h with a < b, in data order, then the
    constants of height h."""
    k = delta.arity
    for combo in product(unit_rationals(h), repeat=2 * k + 2):
        if combo[2 * k] >= combo[2 * k + 1] or max(c.denominator for c in combo) != h:
            continue
        try:
            seg = make_segment(delta, combo[:k], combo[k : 2 * k], combo[2 * k], combo[2 * k + 1])
        except ValueError:
            continue
        yield SegF(seg, atomics)
    yield from _constants(h)


def _stream(atomics: tuple[Atomic, ...], delta: Modulus) -> Iterator[Formula]:
    """The items of one tuple of atomics, height by height: the singles of
    height h, then the meets and the joins whose later operand was emitted
    at height h - 1.

    Every height emits at least the new constant 1/h, so the stream never
    runs dry."""
    items: list[Formula] = []
    lo = hi = 0  # items[lo:hi] were emitted at the previous height
    for h in count(1):
        start = len(items)
        lattice = (op((items[i], items[j]))
                   for op in (MinF, MaxF) for j in range(lo, hi) for i in range(j))
        for phi in chain(_singles(atomics, delta, h), lattice):
            items.append(phi)
            yield phi
        lo, hi = start, len(items)


class FamilyEnumerator:
    """Deterministic cursor over the dense family at one arity.

    Connectives take at most ``MAX_TUPLE_LEN`` atomics; data heights and
    lattice sizes stay exhaustive in the limit, while longer tuples would
    multiply segment data combinatorially for no practical distinguishing
    power at this scale.
    """

    def __init__(
        self,
        signature: Signature,
        omega: SumWeakModulus,
        arity: int,
        term_depth: int = 1,
    ):
        self.signature = signature
        self.omega = omega
        self.arity = arity
        self.pool = atomic_pool(signature, arity, term_depth)
        self._emitted: list[Formula] = []
        self._delta_cache: dict[tuple[Vec, ...], Modulus | None] = {}
        self._members = self._diagonal()
        self._stacks: dict[int, list[Formula]] = {}  # count -> family_stack at this arity

    def _induced(self, atomics: tuple[Atomic, ...]) -> Modulus | None:
        rows = []
        for a in atomics:
            row = linear_upper_row(canonical_modulus(a, self.signature, self.arity))
            if row is None:
                return None
            rows.append(row)
        key = tuple(rows)
        if key not in self._delta_cache:
            self._delta_cache[key] = induced_modulus_exact(rows)
        return self._delta_cache[key]

    def _diagonal(self) -> Iterator[Formula]:
        """Diagonal j opens a stream for the j-th tuple of atomics (in
        length, then lexicographic order) if that tuple has an induced
        modulus, then takes one item from every open stream, oldest first."""
        if not self.pool:
            yield from chain.from_iterable(map(_constants, count(1)))
            return
        streams: list[Iterator[Formula]] = []
        tuples = chain.from_iterable(
            product(self.pool, repeat=k) for k in range(1, MAX_TUPLE_LEN + 1)
        )
        for atomics in tuples:
            delta = self._induced(atomics)
            if delta is not None:
                streams.append(_stream(atomics, delta))
            for stream in streams:
                yield next(stream)
        while streams:
            for stream in streams:
                yield next(stream)

    def take(self, count: int) -> list[Formula]:
        """The first ``count`` family members, in enumeration order."""
        self._emitted.extend(islice(self._members, max(0, count - len(self._emitted))))
        return self._emitted[:count]


_ENUM_CACHE: dict[tuple, FamilyEnumerator] = {}


def _enumerator(signature: Signature, omega: SumWeakModulus, arity: int,
                term_depth: int) -> FamilyEnumerator:
    key = (signature, omega, arity, term_depth)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = FamilyEnumerator(signature, omega, arity, term_depth)
    return _ENUM_CACHE[key]


def enumerate_family(
    signature: Signature,
    omega: SumWeakModulus,
    arity: int,
    count: int,
    term_depth: int = 1,
) -> list[Formula]:
    """First ``count`` members of the dense family at the given arity."""
    return _enumerator(signature, omega, arity, term_depth).take(count)


def family_stack(
    signature: Signature,
    omega: SumWeakModulus,
    arity: int,
    count: int,
    term_depth: int = 1,
) -> list[Formula]:
    """Family members at ``arity`` including every lower-arity member.

    A formula with free variables among v0..v_{m-1} is also an n-ary
    family member for n >= m, so inheriting them costs nothing and makes
    the truncated stage-0 distance monotone under tuple extension (the
    property the successor recursion leans on).  The stack at arity - 1 is
    a prefix; each call copies the union kept on the arity's enumerator.
    """
    stacks = _enumerator(signature, omega, arity, term_depth)._stacks
    if count not in stacks:
        stacks[count] = list(dict.fromkeys(chain.from_iterable(
            enumerate_family(signature, omega, n, count, term_depth) for n in range(1, arity + 1)
        )))
    return list(stacks[count])


# ---------------------------------------------------------------------------
# Respects-check (grid resolution)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RespectReport:
    respects: bool
    witness: tuple[Vec, Vec] | None
    gap: Fraction | None  # |u(z) - u(w)| - bound at the witness
    reduced_atomics: int

    def __bool__(self) -> bool:
        return self.respects


def respects_weak_modulus(
    phi: Formula,
    signature: Signature,
    omega: SumWeakModulus,
    step: Fraction = Fraction(1, 16),
    k_max: int = 8,
) -> RespectReport:
    """Decide, at grid resolution, whether a basic formula's connective
    respects the modulus induced by its atomics under ``omega``.

    Zero-modulus atomics of the form d(t,t) are pinned to 0 first; other
    zero-modulus atomics are rejected (their constant value depends on
    the structure, so the caller must substitute it).
    """
    if not is_basic(phi):
        raise ValueError("the respects-check applies to basic formulas")
    step = Fraction(step)
    n = max(1, span_arity(phi))
    pinned: dict[Atomic, Fraction] = {}
    kept: list[Atomic] = []
    deltas: list[Modulus] = []
    for a in basic_atomics(phi):
        m = canonical_modulus(a, signature, n)
        if is_zero_modulus(m):
            if a.relation == METRIC_SYMBOL and a.args[0] == a.args[1]:
                pinned[a] = ZERO
            else:
                raise ValueError(
                    f"atomic {print_formula(a)} has zero modulus with a "
                    "structure-dependent value; substitute its constant first"
                )
        else:
            kept.append(a)
            deltas.append(m)
    if not kept:
        return RespectReport(True, None, None, len(pinned))
    induced = induced_connective_modulus(deltas, omega, k_max, RatGrid(n, step, ONE))
    uvals = {z: eval_connective(phi, pinned | dict(zip(kept, z)))
             for z in RatGrid(len(kept), step, ONE).points()}
    bad = _respect_violation(uvals, induced)
    if bad is None:
        return RespectReport(True, None, None, len(pinned))
    z, w = bad
    gap = abs(uvals[z] - uvals[w]) - induced(pi_fold(vec_sub(z, w)))
    return RespectReport(False, bad, gap, len(pinned))


# ---------------------------------------------------------------------------
# Lattice approximation of a modulus-respecting target
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationResult:
    term: MaxF  # a join of meets of segments over the given atomics
    deviation: Fraction
    succeeded: bool
    leaves: int


def _respect_violation(
    u: Mapping[Vec, Fraction], delta: Modulus
) -> tuple[Vec, Vec] | None:
    """The first pair (p, q) of sample points, in the mapping's order, with
    |u(p) - u(q)| > delta(pi(p - q)); delta is evaluated once per difference."""
    bounds: dict[Vec, Fraction] = {}
    for p in u:
        for q in u:
            dv = pi_fold(vec_sub(p, q))
            if dv not in bounds:
                bounds[dv] = delta(dv)
            if abs(u[p] - u[q]) > bounds[dv]:
                return p, q
    return None


def lattice_approximate(
    u: Mapping[Vec, Fraction] | Callable[[Vec], Fraction],
    delta: Modulus,
    eps: Fraction,
    atomics: Sequence[Atomic],
    budget: int = 20000,
    grid: RatGrid | None = None,
) -> ApproximationResult:
    """Approximate a modulus-respecting target on [0,1]^k by a basic
    formula over ``atomics`` (k distinct ones, coordinate i of the target
    read off atomic i): a ``MaxF`` of ``MinF``s of ``SegF``s.

    For each anchor x the meet of the two-point interpolating segments
    through (x, u(x)) lies below u + 0 everywhere on the sample set and
    equals u(x) at x; the join of these meets then reproduces u exactly
    at every sample point.  ``budget`` bounds anchors x sample points:
    anchors are halved until it holds, down to one anchor, whose |pts|
    segments are the floor.  Only thinning can push the deviation past
    ``eps``; the deviation reached is reported.
    """
    atomics = tuple(atomics)
    if len(atomics) != delta.arity:
        raise ValueError(f"need {delta.arity} atomics for the modulus, got {len(atomics)}")
    if len(set(atomics)) != len(atomics):
        raise ValueError("the atomics must be distinct")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if callable(u) and not isinstance(u, Mapping):
        if grid is None:
            raise ValueError("a callable target needs a grid")
        table = {p: Fraction(u(p)) for p in grid.points()}
    else:
        table = {tuple(Fraction(c) for c in p): Fraction(v) for p, v in u.items()}
    for p, v in table.items():
        require_unit(v, f"target value at {format_vec(p)}")
    bad = _respect_violation(table, delta)
    if bad is not None:
        p, q = bad
        raise ValueError(
            f"target does not respect the modulus: |u{format_vec(p)} - "
            f"u{format_vec(q)}| > D(pi(p-q))"
        )
    pts = sorted(table)
    anchors = pts
    # Honor the budget by halving the anchors; segments per anchor = |pts|.
    while len(anchors) > 1 and len(anchors) * len(pts) > budget:
        anchors = anchors[::2]
    meets = []
    for x in anchors:
        segs: dict[SegF, None] = {}
        for y in pts:
            if table[y] >= table[x]:
                seg = make_segment(delta, x, y, table[x], table[y])
            else:
                seg = make_segment(delta, y, x, table[y], table[x])
            segs[SegF(seg, atomics)] = None
        meets.append(MinF(tuple(segs)))
    term = MaxF(tuple(meets))
    deviation = max(abs(eval_connective(term, dict(zip(atomics, p))) - table[p]) for p in pts)
    return ApproximationResult(
        term=term,
        deviation=deviation,
        succeeded=deviation < eps,
        leaves=sum(len(m.items) for m in meets),
    )
