"""Back-and-forth pseudo-distances, Scott rank, and the threshold fixpoint.

The engine computes, for one finite structure:

* stage-0 distance: r0(a, b) = max over the first N enumerated family
  members phi of |phi(a) - phi(b)| (an exact lower bound for the true
  supremum, nondecreasing in N);
* successor stages, consuming arity n+1 to produce arity n:

      r_{alpha+1}(a, b) = max( max_c min_d r_alpha(ac, bd),
                               max_d min_c r_alpha(ac, bd) )

  i.e. the two-sided Hausdorff lift over one-point extensions (the
  inf over independent witnesses splits into the two one-sided terms).
  Every r_alpha is symmetric, so the first term is the transpose of the
  second, and the lift reduces only one of them;
* a triangular table family: stage alpha is available at arity n when
  n + alpha <= table_cap, the one truncation, made explicit;
* the threshold operator at a rational q > 0, whose stages collect,
  besides length-mismatched pairs, exactly the pairs with r_k > q.
  Thresholding commutes with min and max, so its step is the same lift
  on a boolean table (min and max are AND and OR).  Its top arity is
  fixed at stage 0, so its least fixed point closes by stage table_cap
  inside the same window; the fixpoint and entry stages are compared
  against the r-threshold predicate by ``oracle_equivalence``.

Arithmetic is exact throughout.  Every successor stage is a min/max of
the stage before, so every stage holds only stage-0 values, and every
later question (threshold, equality, stability) is about their order.
Each engine therefore keeps one ascending ``codebook`` of the distinct
stage-0 values as Fractions, shared by every arity and stage, and every
stage table holds small unsigned integer codes into it.  Stage 0 evaluates
segment connectives in Python integers over one common denominator
(``SegmentConnective.column``), not Fraction by Fraction.  At arity n it
evaluates only the family members new at n: an older member reads the
first n - 1 points, so the arity-(n - 1) table, each index repeated once
per point, holds its share.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .evaluation import Evaluator
from .family import family_stack
from .moduli import SumWeakModulus
from .rationals import ZERO, format_rational, lcm_denominator
from .structures import PreStructure
from .syntax import Atomic, ConstF, Formula, MaxF, MinF, SegF, basic_atomics

_AUTO_TUPLE_BUDGET = 2000  # top-arity tuple count the auto cap will allow
# Stage-0 cells a window may hold, checked before any table exists.  A
# built table keeps one byte per cell, but building turns each table into
# an 8-byte index once (``used[table]``, ``code[table]``).
MAX_TABLE_CELLS = 2**26


class TableBudgetError(ValueError):
    """The stage tables of the window would exceed ``MAX_TABLE_CELLS``."""


@dataclass(frozen=True)
class EngineConfig:
    family_size: int = 200
    max_arity: int = 3
    table_cap: int | None = None  # arity + stage window; None picks a size-aware default
    term_depth: int = 1

    def resolved_cap(self, n_points: int) -> int:
        """Explicit cap wins; otherwise max_arity + 2, clamped so the
        top-arity tuple set stays within budget (but always leaving at
        least one successor stage above max_arity)."""
        if self.table_cap is not None:
            return self.table_cap
        cap = self.max_arity + 2
        while cap > self.max_arity + 1 and n_points**cap > _AUTO_TUPLE_BUDGET:
            cap -= 1
        return cap

    def meta(self, cap: int) -> dict:
        """The report parameters, with ``cap`` the resolved table cap."""
        return {
            "family_size": self.family_size,
            "max_arity": self.max_arity,
            "table_cap": cap,
            "term_depth": self.term_depth,
        }


@dataclass(frozen=True)
class RankReport:
    rank: int | None
    definitive: bool
    checkable_stages: int
    stable: dict[tuple[int, int], bool]
    meta: dict


@dataclass
class FixpointTrace:
    q: Fraction
    # arity -> entry stage per pair (-1: never enters), as the smallest
    entry: dict[int, np.ndarray]  # signed integer type holding the table cap
    stage_sizes: list[dict[int, int]]  # per stage, per arity, members among equal-length pairs
    closed: bool  # always true: the fixpoint closes by stage cap
    closure_stage: int
    meta: dict

    def entry_stage(self, a: tuple[str, ...], b: tuple[str, ...], engine: "BFEngine") -> int | None:
        if len(a) != len(b):
            return 0
        n = len(a)
        v = int(self.entry[n][engine.tuple_index(a), engine.tuple_index(b)])
        return v if v >= 0 else None


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    q: Fraction
    mismatches: tuple[tuple, ...]
    pairs_checked: int
    meta: dict


def _stage0(rows: dict[int, np.ndarray], values: dict[Fraction, int]) -> tuple[tuple, dict]:
    """The codebook, and the stage-0 table of each arity from its rows of
    codes into ``values``, arities ascending.

    A cell is the max over rows of |v_i - v_j|, so with ``diff[i, j]`` the
    rank of that difference, a table is a max of ``diff`` entries.  The
    ranks come from integers over the values' common denominator.  Given
    arity n - 1 too, arity n's rows need only the members new at n: an
    older member reads the first n - 1 points of an n-tuple (index i // m
    over m points), so the arity-(n - 1) table repeated m times holds it."""
    scale = lcm_denominator(values)
    nums = [v.numerator * (scale // v.denominator) for v in values]  # in code order
    gaps = sorted({0} | {abs(x - y) for x in nums for y in nums})
    rank = {g: i for i, g in enumerate(gaps)}
    diff = np.array([[rank[abs(x - y)] for y in nums] for x in nums],
                    dtype=np.min_scalar_type(len(gaps) - 1))
    used = np.zeros(len(gaps), dtype=bool)
    tables = {}
    for n, R in rows.items():
        prev = tables.get(n - 1, np.zeros((1, 1), diff.dtype))  # no arity below: all 0
        m = R.shape[1] // len(prev)
        table = prev.repeat(m, 0).repeat(m, 1)
        for row in R:
            np.maximum(table, diff.take(row, axis=0).take(row, axis=1), out=table)
        used[table] = True
        tables[n] = table
    # Only the differences that some cell holds enter the codebook.
    codebook = tuple(Fraction(gaps[i], scale) for i in np.flatnonzero(used))
    code = (np.cumsum(used) - 1).astype(np.min_scalar_type(len(codebook) - 1))
    return codebook, {n: code[table] for n, table in tables.items()}


def _lift(x: np.ndarray, m: int) -> np.ndarray:
    """The two-sided Hausdorff lift over one-point extensions by m points,
    max(max_c min_d x[ac, bd], max_d min_c x[ac, bd]) at (a, b): the next
    stage on codes, the threshold step on booleans (min AND, max OR).

    ``x`` must be symmetric, as every stage and threshold table is: then the
    first term is the transpose of the second, so only the second is
    reduced, its min over c from the contiguous row blocks ``x4[:, c]``.
    Each quantifier folds m slices; numpy reduces a short axis slower."""
    t = x.shape[0] // m
    x4 = x.reshape(t, m, t, m)
    min_c = x4[:, 0].copy()  # [a, b, d]
    for c in range(1, m):
        np.minimum(min_c, x4[:, c], out=min_c)
    one = np.maximum.reduce([min_c[..., d] for d in range(m)])
    return np.maximum(one, one.T)


class BFEngine:
    """All back-and-forth computations for one validated structure."""

    def __init__(self, structure: PreStructure, config: EngineConfig | None = None):
        self.s = structure
        self.config = config or EngineConfig()
        self.cap = self.config.resolved_cap(len(structure.points))
        self._tuples: dict[int, list[tuple[str, ...]]] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._codebook: tuple[Fraction, ...] = ()

    # -- construction -------------------------------------------------

    def tuples(self, n: int) -> list[tuple[str, ...]]:
        if n not in self._tuples:
            self._tuples[n] = self.s.tuples(n)
        return self._tuples[n]

    def tuple_index(self, t: tuple[str, ...]) -> int:
        m = len(self.s.points)
        idx = 0
        for p in t:
            idx = idx * m + self.s.points.index(p)
        return idx

    def family(self, n: int) -> list[Formula]:
        cfg = self.config
        return family_stack(self.s.signature, SumWeakModulus(), n, cfg.family_size, cfg.term_depth)

    def _formula_rows(
        self, members: list[Formula], tuples: list[tuple[str, ...]], values: dict[Fraction, int]
    ) -> np.ndarray:
        """Value codes of the distinct rows of ``members`` over ``tuples``.

        ``values`` maps each value to its code and gives unseen values the
        next code.  Each member is evaluated bottom-up, one column per
        subformula, over the distinct tuples of atom values (found once per
        tuple of atomics), and its segments in integers over one common
        denominator; ``eval_connective`` is the reference tests compare to."""
        ev = Evaluator(self.s)

        def codes(vs: list[Fraction]) -> np.ndarray:
            # Fraction hashing is slow: look each distinct object up once
            first = {id(v): v for v in vs}
            code = {i: values.setdefault(v, len(values)) for i, v in first.items()}
            return np.array([code[id(v)] for v in vs], dtype=np.intp)

        def column(phi: Formula, at: dict[Atomic, list[Fraction]], k: int) -> list[Fraction]:
            if isinstance(phi, Atomic):
                return at[phi]
            if isinstance(phi, ConstF):
                return [phi.value] * k
            if isinstance(phi, (MinF, MaxF)):
                pick = min if isinstance(phi, MinF) else max
                return [pick(vs) for vs in zip(*(column(f, at, k) for f in phi.items))]
            if isinstance(phi, SegF):
                return phi.segment.column([column(f, at, k) for f in phi.args])
            raise TypeError(type(phi))

        atom_cols: dict[Atomic, list[Fraction]] = {}
        # atomics -> (atom columns over the distinct atom tuples, their count, inverse)
        points: dict[tuple[Atomic, ...], tuple[dict[Atomic, list[Fraction]], int, np.ndarray]] = {}
        rows: dict[bytes, np.ndarray] = {}
        for phi in members:
            atomics = basic_atomics(phi)
            if atomics not in points:
                for a in atomics:
                    if a not in atom_cols:
                        atom_cols[a] = [ev.formula(a, t) for t in tuples]
                cols = [atom_cols[a] for a in atomics]
                keys = np.array([codes(c) for c in cols], dtype=np.intp).reshape(len(cols), len(tuples))
                _, first, inverse = np.unique(keys.T, axis=0, return_index=True, return_inverse=True)
                at = {a: [c[i] for i in first] for a, c in zip(atomics, cols)}
                points[atomics] = (at, len(first), inverse.reshape(-1))
            at, k, inverse = points[atomics]
            row = codes(column(phi, at, k))[inverse]
            rows.setdefault(row.tobytes(), row)
        return np.array(list(rows.values()), dtype=np.intp).reshape(len(rows), len(tuples))

    def _build(self) -> None:
        """Stage 0 at every arity of the window, and the codebook; arity n
        evaluates only the family members new at n."""
        if self._built:
            return
        m = len(self.s.points)
        cells = sum(m ** (2 * n) for n in range(1, self.cap + 1))
        if cells > MAX_TABLE_CELLS:
            raise TableBudgetError(
                f"the stage-0 tables of arities 1..{self.cap} would hold {cells:,} "
                f"cells, past the limit of {MAX_TABLE_CELLS:,}; lower the table cap"
            )
        values: dict[Fraction, int] = {}
        rows, seen = {}, 0
        for n in range(1, self.cap + 1):
            members = self.family(n)
            rows[n] = self._formula_rows(members[seen:], self.tuples(n), values)
            seen = len(members)
        self._codebook, tables = _stage0(rows, values)
        self._tables.update(((n, 0), table) for n, table in tables.items())

    @property
    def _built(self) -> bool:
        """Stage 0 is built exactly when a table exists (the tracer in
        ``perfbench`` reads this to time stage 0 once per engine)."""
        return bool(self._tables)

    @property
    def codebook(self) -> tuple[Fraction, ...]:
        """The distinct stage-0 values, ascending; a table code i stands for
        ``codebook[i]``."""
        self._build()
        return self._codebook

    # -- stage tables ---------------------------------------------------

    def window(self, n: int) -> int:
        """Highest stage available at arity n."""
        return self.cap - n

    def table(self, n: int, stage: int) -> np.ndarray:
        """Stage table at arity n, as codes into ``codebook``."""
        self._build()
        if n < 1 or n > self.cap:
            raise ValueError(f"arity {n} outside the table window 1..{self.cap}")
        if stage < 0 or stage > self.window(n):
            raise ValueError(
                f"stage {stage} at arity {n} outside the triangular window "
                f"(arity + stage <= {self.cap})"
            )
        key = (n, stage)
        if key not in self._tables:
            self._tables[key] = _lift(self.table(n + 1, stage - 1), len(self.s.points))
        return self._tables[key]

    def value(self, stage: int, a: tuple[str, ...], b: tuple[str, ...]) -> Fraction:
        """r_stage(a, b) as an exact rational."""
        if len(a) != len(b):
            raise ValueError("tuples must have equal length; unequal lengths are "
                             "flagged by the threshold operator instead")
        tab = self.table(len(a), stage)
        return self._codebook[tab[self.tuple_index(a), self.tuple_index(b)]]

    def pairs(self, n: int, stage: int) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], Fraction]]:
        tab = self.table(n, stage)
        tuples = self.tuples(n)
        for i, a in enumerate(tuples):
            for j, b in enumerate(tuples):
                yield a, b, self._codebook[tab[i, j]]

    # -- r0 metadata ----------------------------------------------------

    def r0_pair(self, a: tuple[str, ...], b: tuple[str, ...]) -> tuple[Fraction, dict]:
        """Stage-0 value for one pair plus resolution metadata (family size,
        and the metric-only closed form where available)."""
        if len(a) != len(b):
            raise ValueError("tuples must have equal length")
        n = len(a)
        members = self.family(n)
        values: dict[Fraction, int] = {}
        rows = self._formula_rows(members, [a, b], values)
        codebook, tables = _stage0({n: rows}, values)
        best = codebook[tables[n][0, 1]]
        meta: dict = {"family_size": len(members), "arity": n}
        sig = self.s.signature
        if not sig.relations and not sig.functions and not sig.constants:
            oracle = ZERO
            for i in range(n):
                for j in range(n):
                    gap = abs(self.s.d(a[i], a[j]) - self.s.d(b[i], b[j]))
                    if gap > oracle:
                        oracle = gap
            meta["metric_oracle"] = format_rational(oracle)
            # The pairwise closed form is the exact supremum for pairs;
            # from arity 3 on, combined-difference connectives can exceed it.
            meta["metric_oracle_exact"] = n <= 2
            if n <= 2:
                meta["certified_slack"] = format_rational(oracle - best)
        return best, meta

    # -- Scott rank -------------------------------------------------------

    def scott_rank(self) -> RankReport:
        """The rank is the first stage alpha from which every checked pair
        (n, beta >= alpha) is stable: where the stable suffix of the window
        starts.  There is none when the last checked stage is unstable."""
        self._build()
        max_arity = min(self.config.max_arity, self.cap - 1)
        # no (arity, stage) pair to compare when no arity fits below the cap
        checkable = self.cap - max_arity - 1 if max_arity >= 1 else -1
        stable: dict[tuple[int, int], bool] = {}
        rank: int | None = None
        for alpha in range(checkable + 1):
            all_stable = True
            for n in range(1, max_arity + 1):
                eq = bool(np.array_equal(self.table(n, alpha), self.table(n, alpha + 1)))
                stable[(n, alpha)] = eq
                all_stable = all_stable and eq
            if not all_stable:
                rank = None
            elif rank is None:
                rank = alpha
        return RankReport(
            rank=rank,
            definitive=rank is not None,
            checkable_stages=checkable,
            stable=stable,
            meta=self.config.meta(self.cap) | {"structure": self.s.name},
        )

    # -- threshold operator ------------------------------------------------

    def _threshold(self, n: int, stage: int, q: Fraction) -> np.ndarray:
        """The pairs with r_stage > q: codes past every codebook value <= q."""
        return self.table(n, stage) >= bisect_right(self._codebook, q)

    def gamma_fixpoint(self, q: Fraction) -> FixpointTrace:
        """Least fixed point of the threshold operator at q, with entry stages.

        Clause 1 (length mismatch) is implicit: every unequal-length pair
        is a member from stage 0 (``entry_stage`` gives 0) without being
        stored.  Equal-length pairs at arity n carry valid entry
        stages up to the triangular window for that arity.

        Arity n at stage k reads only arity n+1 at stage k-1 and the iterates
        only grow, so an arity is recomputed only when the one above it grew;
        the top arity is fixed at stage 0, so arity n grows at no stage past
        ``cap - n`` and closure comes by stage ``cap``.
        """
        q = Fraction(q)
        if q <= 0:
            raise ValueError("the threshold must be a positive rational")
        self._build()
        current = {n: self._threshold(n, 0, q) for n in range(1, self.cap + 1)}
        dtype = np.min_scalar_type(-1 - self.cap)
        entry = {n: np.subtract(x, 1, dtype=dtype) for n, x in current.items()}
        sizes = [{n: int(np.count_nonzero(x)) for n, x in current.items()}]
        grown = [n for n, c in sizes[0].items() if c]
        k = 0
        while grown:
            k += 1
            sizes.append(dict(sizes[-1]))
            below, grown = [n - 1 for n in grown if n > 1], []
            # ascending, so arity n + 1 still holds stage k - 1 when n reads it
            for n in below:
                fresh = _lift(current[n + 1], len(self.s.points)) & ~current[n]
                c = int(np.count_nonzero(fresh))
                if c:
                    entry[n][fresh] = k
                    current[n] |= fresh
                    sizes[k][n] += c
                    grown.append(n)
        return FixpointTrace(
            q=q,
            entry=entry,
            stage_sizes=sizes,
            closed=True,
            closure_stage=k,
            meta=self.config.meta(self.cap) | {"structure": self.s.name, "q": format_rational(q)},
        )

    def r_entry_stages(self, q: Fraction, n: int) -> np.ndarray:
        """Least stage alpha within the window with r_alpha > q, else -1."""
        out = np.full(self.table(n, 0).shape, -1, np.min_scalar_type(-1 - self.cap))
        # Compared value by value, not through ``_threshold``, so that
        # ``oracle_equivalence`` checks the fixpoint against its own reading.
        above = [v > q for v in self._codebook]
        lo = above.count(False)  # the first code above q, checked, not assumed
        if not all(above[lo:]):
            raise ValueError(f"the codebook is not ascending: values above {q} are not a suffix")
        # Descending, so the least stage is written last and wins.  The write
        # is branch-free and in place, so it costs the same for any mask:
        # out becomes alpha where r_alpha > q and stays put elsewhere, and
        # out - alpha lies in [-1 - window, window], inside the dtype.
        for alpha in range(self.window(n), -1, -1):
            out -= alpha
            out *= self.table(n, alpha) < lo
            out += alpha
        return out

    def oracle_equivalence(self, q: Fraction, max_report: int = 10) -> EquivalenceReport:
        """Check that threshold-fixpoint membership and entry stages coincide
        with the r-threshold predicate, within the shared triangular window."""
        q = Fraction(q)
        trace = self.gamma_fixpoint(q)
        mismatches: list[tuple] = []
        pairs = 0
        for n in range(1, self.cap + 1):
            gamma = trace.entry[n]
            rstages = self.r_entry_stages(q, n)
            pairs += gamma.size
            if np.array_equal(gamma, rstages):
                continue
            bad = np.argwhere(gamma != rstages)
            tuples = self.tuples(n)
            for i, j in bad[:max_report]:
                mismatches.append(
                    (n, tuples[i], tuples[j], int(gamma[i, j]), int(rstages[i, j]))
                )
        return EquivalenceReport(
            ok=not mismatches,
            q=q,
            mismatches=tuple(mismatches),
            pairs_checked=pairs,
            meta=self.config.meta(self.cap) | {"structure": self.s.name},
        )
