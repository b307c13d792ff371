import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mscott.evaluation import Evaluator
from mscott.family import _ENUM_CACHE
from mscott.rationals import lcm_denominator
from mscott.scott import BFEngine, EngineConfig, TableBudgetError, _lift
from mscott.structures import (
    PreStructure, automorphisms, build_metric, load_structure, loads_structure, validate,
)
from mscott.syntax import Signature, basic_atomics, eval_connective

from conftest import codebook_numerators


@pytest.fixture(scope="module")
def three_engine(three_point):
    return BFEngine(three_point, config=EngineConfig(family_size=200, max_arity=2, table_cap=3))


@pytest.fixture(scope="module")
def two_engine(two_point):
    return BFEngine(two_point, config=EngineConfig(max_arity=2, table_cap=4))


def test_r0_reflexive(three_engine):
    for t in three_engine.tuples(2):
        assert three_engine.value(0, t, t) == 0


def test_r0_single_points_empty_signature(three_engine):
    # the arity-1 family over the empty signature is constants only
    assert three_engine.value(0, ("x",), ("y",)) == 0


def test_r0_pair_closed_form(three_engine):
    v, meta = three_engine.r0_pair(("x", "y"), ("x", "z"))
    assert v == F(1, 5)
    assert meta["metric_oracle"] == "1/5"
    assert meta["metric_oracle_exact"] is True


def test_r0_family_size_monotone(three_point):
    small = BFEngine(three_point, config=EngineConfig(family_size=40, table_cap=2))
    big = BFEngine(three_point, config=EngineConfig(family_size=200, table_cap=2))
    for a in three_point.tuples(2):
        for b in three_point.tuples(2):
            vs, _ = small.r0_pair(a, b)
            vb, _ = big.r0_pair(a, b)
            assert vs <= vb


def test_r0_pair_without_family_or_with_equal_tuples(three_point):
    # no family member: no value is coded, and the codebook is (0,)
    empty = BFEngine(three_point, config=EngineConfig(family_size=0, table_cap=2))
    assert empty.r0_pair(("x",), ("y",))[0] == 0 == empty.value(0, ("x",), ("y",))
    assert empty.codebook == (0,)
    eng = BFEngine(three_point, config=EngineConfig(family_size=60, table_cap=2))
    for a in eng.tuples(2):
        assert eng.r0_pair(a, a)[0] == 0 == eng.value(0, a, a)
        assert eng.r0_pair(a, ("z", "x"))[0] == eng.value(0, a, ("z", "x"))


@st.composite
def code_tables(draw):
    m = draw(st.integers(1, 4))
    t = m ** draw(st.integers(1, 3 if m > 2 else 4))
    return m, draw(arrays(np.uint8, (t, t), elements=st.integers(0, 5)))


@given(code_tables())
@settings(max_examples=100, deadline=None)
def test_lift_matches_literal_lift_and_commutes_with_thresholds(table):
    m, x = table
    t = x.shape[0] // m
    ext = range(m)
    literal = np.array([[max(max(min(x[a * m + c, b * m + d] for d in ext) for c in ext),
                             max(min(x[a * m + c, b * m + d] for c in ext) for d in ext))
                         for b in range(t)] for a in range(t)], dtype=np.uint8)
    lifted = _lift(x, m)
    assert lifted.dtype == np.uint8 and np.array_equal(lifted, literal)
    for cut in range(7):
        step = _lift(x >= cut, m)
        assert step.dtype == bool and np.array_equal(step, lifted >= cut)


def brute_successor(engine, a, b):
    """Independent oracle: the sup-inf recursion evaluated literally."""
    pts = engine.s.points
    best = F(0)
    for c, d in product(pts, repeat=2):
        worst = None
        for cp, dp in product(pts, repeat=2):
            v = max(
                engine.value(0, a + (c,), b + (dp,)),
                engine.value(0, a + (cp,), b + (d,)),
            )
            worst = v if worst is None or v < worst else worst
        best = max(best, worst)
    return best


def test_successor_matches_bruteforce(three_engine):
    for a in three_engine.tuples(1):
        for b in three_engine.tuples(1):
            assert three_engine.value(1, a, b) == brute_successor(three_engine, a, b)


def test_successor_matches_bruteforce_with_relation(corpus):
    s = next(c for c in corpus if c.signature.relations)
    eng = BFEngine(s, config=EngineConfig(family_size=100, max_arity=1, table_cap=2))
    for a in eng.tuples(1):
        for b in eng.tuples(1):
            assert eng.value(1, a, b) == brute_successor(eng, a, b)


def test_r1_three_point_spectra(three_engine):
    assert three_engine.value(1, ("x",), ("y",)) == F(1, 5)


def test_two_point_all_stages_vanish(two_engine):
    assert two_engine.value(0, ("p",), ("q",)) == 0
    assert two_engine.value(1, ("p",), ("q",)) == 0
    assert two_engine.value(0, ("p", "q"), ("q", "p")) == 0


def test_two_point_rank_zero(two_engine):
    report = two_engine.scott_rank()
    assert report.rank == 0 and report.definitive


def test_one_point_structure_rank_zero():
    s = PreStructure(signature=Signature(), points=("o",), metric={("o", "o"): F(0)})
    assert validate(s) == []
    eng = BFEngine(s, config=EngineConfig(max_arity=1, table_cap=3))
    report = eng.scott_rank()
    assert report.rank == 0 and report.definitive
    for n in (1, 2):
        for stage in range(eng.window(n) + 1):
            assert (eng.table(n, stage) == 0).all()


def test_three_point_rank_at_least_one(three_point):
    eng = BFEngine(three_point, config=EngineConfig(max_arity=1, table_cap=3))
    report = eng.scott_rank()
    assert report.stable[(1, 0)] is False  # r0 != r1 at arity 1
    assert report.rank == 1


@pytest.mark.parametrize("cap, rank", [(4, None), (5, 3), (6, 3)])
def test_rank_is_where_the_stable_suffix_starts(three_point, cap, rank):
    # at arity 1, r_1 = r_2 but r_2 != r_3: the stage pair (1, 2) is unstable,
    # so stage 1 starts no stable run once the window reaches it
    eng = BFEngine(three_point, config=EngineConfig(max_arity=1, table_cap=cap))
    report = eng.scott_rank()
    assert report.stable[(1, 1)] is True and report.stable[(1, 2)] is False
    assert report.rank == rank and report.definitive == (rank is not None)


def test_pseudometric_axioms_all_stages(corpus):
    for s in corpus[:8]:
        eng = BFEngine(s, config=EngineConfig(family_size=120, max_arity=2, table_cap=3))
        nums, _ = codebook_numerators(eng)
        for n in (1, 2):
            for stage in range(eng.window(n) + 1):
                tab = nums[eng.table(n, stage)]
                assert (np.diagonal(tab) == 0).all()
                assert (tab == tab.T).all()
                t = tab.shape[0]
                for i in range(t):
                    for j in range(t):
                        for k in range(t):
                            assert tab[i, k] <= tab[i, j] + tab[j, k]


def test_stage_monotone(corpus):
    for s in corpus[:8]:
        eng = BFEngine(s, config=EngineConfig(family_size=120, max_arity=2, table_cap=3))
        for n in (1, 2):
            for stage in range(eng.window(n)):
                assert (eng.table(n, stage + 1) >= eng.table(n, stage)).all()


def test_omega_respect(corpus):
    # r(a, b) <= r(a', b) + sum_i d(a_i, a'_i), exactly, all pairs
    for s in corpus[:4]:
        eng = BFEngine(s, config=EngineConfig(family_size=120, max_arity=2, table_cap=3))
        tuples = eng.tuples(2)
        for stage in range(eng.window(2) + 1):
            for a in tuples:
                for ap in tuples:
                    omega_gap = sum(s.d(p, q) for p, q in zip(a, ap))
                    for b in tuples:
                        lhs = eng.value(stage, a, b)
                        rhs = eng.value(stage, ap, b) + omega_gap
                        assert lhs <= rhs


def test_isometry_invariance(two_point, square):
    for s in (two_point, square):
        eng = BFEngine(s, config=EngineConfig(max_arity=2, table_cap=3))
        autos = [f for f in automorphisms(s) if any(f[p] != p for p in s.points)]
        assert autos
        for f in autos:
            for n in (1, 2):
                for t in eng.tuples(n):
                    image = tuple(f[p] for p in t)
                    for stage in range(eng.window(n) + 1):
                        assert eng.value(stage, t, image) == 0


def test_gamma_three_point_entry_stages(three_engine):
    trace = three_engine.gamma_fixpoint(F(1, 10))
    assert trace.entry_stage(("x",), ("y",), three_engine) == 1
    assert trace.entry_stage(("x", "y"), ("x", "z"), three_engine) == 0
    assert trace.entry_stage(("x",), ("y", "z"), three_engine) == 0
    assert trace.closed


def test_gamma_large_threshold_empty(three_engine):
    trace = three_engine.gamma_fixpoint(F(1))
    for n in range(1, three_engine.cap + 1):
        assert (trace.entry[n] < 0).all()


def test_gamma_rejects_nonpositive(three_engine):
    with pytest.raises(ValueError):
        three_engine.gamma_fixpoint(F(0))


def test_threshold_monotone(three_engine):
    lo = three_engine.gamma_fixpoint(F(1, 10))
    hi = three_engine.gamma_fixpoint(F(1, 4))
    for n in range(1, three_engine.cap + 1):
        hi_members = hi.entry[n] >= 0
        lo_members = lo.entry[n] >= 0
        assert (lo_members | ~hi_members).all()  # hi subset of lo


def test_oracle_equivalence_three_point(three_engine):
    for q in (F(1, 10), F(1, 4), F(1, 2), F(3, 4)):
        report = three_engine.oracle_equivalence(q)
        assert report.ok, report.mismatches


def test_oracle_equivalence_reports_a_corrupted_cell(three_point):
    # r_0(x, y) = 0 < 1/10 < r_1(x, y), so (x, y) enters at stage 1; zeroing
    # that one stage-1 cell moves its r entry stage to 2, which the fixpoint
    # (lifting thresholded stage-0 tables) does not see
    eng = BFEngine(three_point, config=EngineConfig(max_arity=2, table_cap=3))
    assert eng.oracle_equivalence(F(1, 10)).ok
    assert eng.codebook[0] == 0
    i, j = eng.tuple_index(("x",)), eng.tuple_index(("y",))
    eng.table(1, 1)[i, j] = 0
    report = eng.oracle_equivalence(F(1, 10))
    assert not report.ok
    assert report.mismatches == ((1, ("x",), ("y",), 1, 2),)


def test_oracle_equivalence_isometric_pairs(two_engine):
    report = two_engine.oracle_equivalence(F(1, 10))
    assert report.ok
    trace = two_engine.gamma_fixpoint(F(1, 10))
    assert trace.entry_stage(("p",), ("q",), two_engine) is None


def test_table_window_errors(three_engine):
    with pytest.raises(ValueError):
        three_engine.table(1, 99)
    with pytest.raises(ValueError):
        three_engine.table(99, 0)
    with pytest.raises(ValueError):
        three_engine.value(0, ("x",), ("y", "z"))


def test_r0_pair_agrees_with_table_route(data_dir):
    # r0_pair and the stage-0 tables share one row route; the independent
    # reference is the tree-walking Evaluator maximum over the family.
    for name in ("three_point", "rel_demo"):
        s = load_structure(data_dir / f"{name}.ms")
        engine = BFEngine(s, config=EngineConfig(family_size=60, max_arity=2, table_cap=2))
        ev = Evaluator(s)
        for n in (1, 2):
            family = engine.family(n)
            for a in engine.tuples(n):
                for b in engine.tuples(n):
                    direct = max(abs(ev.formula(phi, a) - ev.formula(phi, b)) for phi in family)
                    assert engine.r0_pair(a, b)[0] == direct == engine.value(0, a, b)


def _decimal_structure(seed, n_points):
    """Distances k/10^8 in [1/2, 1] with k coprime to 10: valid, and every
    distance has denominator exactly 10^8."""
    rng = random.Random(seed)
    points = tuple(f"w{i}" for i in range(n_points))
    lower = []
    for i in range(1, n_points):
        ks = [rng.randrange(5 * 10**7 + 1, 10**8, 2) for _ in range(i)]
        lower.append([F(k if k % 5 else k + 2, 10**8) for k in ks])
    s = PreStructure(signature=Signature(), points=points, metric=build_metric(points, lower))
    assert validate(s) == []
    return s


def test_stage0_rows_match_reference_evaluator(corpus, data_dir):
    # The rows come from integer segment columns; the reference is
    # eval_connective at every n-tuple, for every family member.
    wide = [_decimal_structure(seed, 3) for seed in (1, 2)]
    for s in [*corpus, load_structure(data_dir / "rel_demo.ms"), *wide]:
        cap = 3 if len(s.points) <= 4 else 2  # the reference is slow on 5^3 tuples
        engine = BFEngine(s, config=EngineConfig(family_size=50, table_cap=cap))
        ev = Evaluator(s)
        values: dict = {}
        for n in range(1, cap + 1):
            rows = engine._formula_rows(engine.family(n), engine.tuples(n), values)
            value_of = list(values)
            got = [tuple(value_of[c] for c in row) for row in rows]
            want = {
                tuple(eval_connective(phi, {a: ev.formula(a, t) for a in basic_atomics(phi)})
                      for t in engine.tuples(n))
                for phi in engine.family(n)
            }
            assert len(set(got)) == len(got) and set(got) == want, (s.name, n)
        if s in wide:
            assert lcm_denominator(values).bit_length() > 40


def _stage0_structures(corpus, data_dir):
    return [*corpus, load_structure(data_dir / "rel_demo.ms"),
            load_structure(data_dir / "square.ms"), _decimal_structure(3, 4)]


def test_stage0_cells_are_family_maxima(corpus, data_dir):
    # Arity n evaluates only the members new at n and takes the rest from
    # arity n - 1; the reference evaluates every member of family(n) at
    # every n-tuple with the tree-walking Evaluator.
    for s in _stage0_structures(corpus, data_dir):
        engine = BFEngine(s, config=EngineConfig(family_size=50, table_cap=3))
        ev = Evaluator(s)
        for n in range(1, 4):
            tuples = engine.tuples(n)
            cols = [[ev.formula(phi, t) for t in tuples] for phi in engine.family(n)]
            scale = lcm_denominator({v for col in cols for v in col})
            want = np.zeros((len(tuples),) * 2, dtype=object)
            for col in cols:
                x = np.array([v.numerator * (scale // v.denominator) for v in col], dtype=object)
                want = np.maximum(want, abs(x[:, None] - x[None, :]))
            got = np.array([v * scale for v in engine.codebook], dtype=object)[engine.table(n, 0)]
            assert (got == want).all(), (s.name, n)


def test_r0_pair_agrees_with_expanded_tables(corpus, data_dir):
    # r0_pair evaluates all of family(n) over its one pair; the tables of
    # arities 3 and 4 are built from the arity below.
    rng = random.Random(7)
    for s in _stage0_structures(corpus, data_dir):
        engine = BFEngine(s, config=EngineConfig(family_size=50, table_cap=4))
        for n in (3, 4):
            for _ in range(4):
                a, b = rng.choice(engine.tuples(n)), rng.choice(engine.tuples(n))
                assert engine.r0_pair(a, b)[0] == engine.value(0, a, b), (s.name, a, b)


def gamma_fixpoint_oracle(engine, q):
    """Independent threshold-operator implementation: explicit sets of
    equal-length pairs and literal quantifier loops.  Returns the entry
    stages, the per-stage member counts, the closed flag and the closure
    stage, looking no further than stage ``cap``."""
    pts = engine.s.points
    arities = range(1, engine.cap + 1)
    pairs = {n: [(a, b) for a in engine.tuples(n) for b in engine.tuples(n)] for n in arities}
    base = {
        n: {(a, b) for a, b in pairs[n] if engine.value(0, a, b) > q} for n in arities
    }
    entry: dict = {n: {} for n in arities}
    current: dict = {n: set() for n in arities}
    sizes = []
    for k in range(engine.cap + 1):
        new = {}
        for n in arities:
            members = set(base[n])
            if n + 1 <= engine.cap:
                x = current[n + 1]
                for a, b in pairs[n]:
                    found = False
                    for c in pts:
                        for d in pts:
                            if all(
                                (a + (cp,), b + (d,)) in x or (a + (c,), b + (dp,)) in x
                                for cp in pts
                                for dp in pts
                            ):
                                found = True
                                break
                        if found:
                            break
                    if found:
                        members.add((a, b))
            new[n] = members
            for pair in members:
                entry[n].setdefault(pair, k)
        sizes.append({n: len(new[n]) for n in arities})
        if new == current:
            return entry, sizes, True, k
        current = new
    return entry, sizes, False, None


def assert_gamma_matches_oracle(eng, q):
    trace = eng.gamma_fixpoint(q)
    entry, sizes, closed, closure_stage = gamma_fixpoint_oracle(eng, q)
    for n in range(1, eng.cap + 1):
        info = np.iinfo(trace.entry[n].dtype)
        assert info.min <= -1 and info.max >= eng.cap
        tuples = eng.tuples(n)
        for i, a in enumerate(tuples):
            for j, b in enumerate(tuples):
                got = int(trace.entry[n][i, j])
                want = entry[n].get((a, b), -1)
                assert got == want, (q, n, a, b, got, want)
    assert trace.stage_sizes == sizes, q
    assert all(type(c) is int for stage in trace.stage_sizes for c in stage.values())
    assert (trace.closed, trace.closure_stage) == (closed, closure_stage), q
    return trace


def test_gamma_matches_independent_oracle(three_point):
    eng = BFEngine(three_point, config=EngineConfig(family_size=120, max_arity=1, table_cap=2))
    for q in (F(1, 10), F(1, 4), F(1, 2), F(3, 2**36 + 1), F(1, 2**70)):
        assert_gamma_matches_oracle(eng, q)


# Arity 1 enters at stage 2 at q = 1/4, after arity 2 grew at stage 1, so an
# arity that read the stage being built would enter a stage early.
CHAIN_MS = "mscott/1\n[signature]\n[points]\np0 p1 p2\n[metric]\n5/8\n7/8 17/32\n"


@pytest.mark.parametrize("name", ["three_point", "rel_demo", "square", "chain"])
def test_gamma_every_field_matches_oracle(data_dir, name):
    if name == "chain":
        s = loads_structure(CHAIN_MS, name=name)
    else:
        s = load_structure(data_dir / f"{name}.ms")
    eng = BFEngine(s, config=EngineConfig(family_size=60, max_arity=2, table_cap=3))
    for q in (F(1, 10), F(1, 4)):
        trace = assert_gamma_matches_oracle(eng, q)
        # arity n enters at stage k only if n + k entered at stage 0, so every
        # entry stage lies in the window and the oracle reads it unmasked
        assert all((trace.entry[n] <= eng.window(n)).all() for n in range(1, eng.cap + 1))
    # above every codebook value stage 0 is empty, so it closes at once
    trace = assert_gamma_matches_oracle(eng, eng.codebook[-1] + 1)
    assert trace.closed and trace.closure_stage == 0 and trace.stage_sizes == [{1: 0, 2: 0, 3: 0}]
    assert all((trace.entry[n] <= eng.window(n)).all() for n in range(1, eng.cap + 1))


def test_gamma_stage_sizes_monotone_until_closure(three_engine):
    trace = three_engine.gamma_fixpoint(F(1, 10))
    totals = [sum(sizes.values()) for sizes in trace.stage_sizes]
    for prev, nxt in zip(totals, totals[1:]):
        assert prev <= nxt
    assert trace.closed
    assert totals[trace.closure_stage] == totals[trace.closure_stage - 1]


@pytest.fixture(scope="module")
def window_engines(data_dir, corpus):
    """Engines over every data structure and the corpus at table caps 1 to
    4 whose top arity holds at most 2000 tuples (line9, at 9 points, stops
    at cap 3); at cap 1 no stage pair fits."""
    structures = [load_structure(p) for p in sorted(data_dir.glob("*.ms"))] + corpus
    return [
        BFEngine(s, config=EngineConfig(family_size=30, max_arity=2, table_cap=cap))
        for s in structures
        for cap in range(1, 5)
        if len(s.points) ** cap <= 2000
    ]


def test_fixpoint_closes_within_the_window(window_engines):
    # The top arity is fixed at stage 0 and arity n grows only after n + 1
    # did, so the fixpoint closes by stage cap at any threshold: below,
    # inside and above the codebook.
    for eng in window_engines:
        book = eng.codebook
        inside = [v for v in book if v > 0]
        qs = [inside[0] / 2, inside[len(inside) // 2]] if inside else [F(1, 2)]
        for q in qs + [book[-1] + 1]:
            trace = eng.gamma_fixpoint(q)
            assert trace.closed and trace.closure_stage <= eng.cap, (eng.s.name, eng.cap, q)
            assert len(trace.stage_sizes) == trace.closure_stage + 1
            assert eng.oracle_equivalence(q).ok, (eng.s.name, eng.cap, q)


def test_rank_checks_every_stage_pair_of_the_window(window_engines):
    for eng in window_engines:
        report = eng.scott_rank()
        top = min(eng.config.max_arity, eng.cap - 1)
        # stage checkable + 1 at the top arity is the window's edge
        want = eng.cap - top - 1 if top >= 1 else -1
        assert report.checkable_stages == want, (eng.s.name, eng.cap)
        assert set(report.stable) == {(n, a) for n in range(1, top + 1) for a in range(want + 1)}
        unstable = [a for (_, a), eq in report.stable.items() if not eq]
        suffix = max(unstable) + 1 if unstable else 0
        assert report.rank == (suffix if suffix <= want else None), (eng.s.name, eng.cap)


def test_wide_denominator_matches_fraction_bruteforce():
    # Distances k/p for primes p near 2^22: the codebook's common
    # denominator passes 64 bits, where no machine-word scaling is exact.
    points = ("x", "y", "z")
    lower = [[F(2**21 + 5, 4194301)], [F(2**21 + 17, 4194287), F(3 * 2**20, 4194277)]]
    s = PreStructure(signature=Signature(), points=points, metric=build_metric(points, lower))
    assert validate(s) == []
    eng = BFEngine(s, config=EngineConfig(family_size=30, max_arity=1, table_cap=2))
    assert lcm_denominator(eng.codebook).bit_length() >= 64
    ev = Evaluator(s)
    for n in (1, 2):
        for a in eng.tuples(n):
            for b in eng.tuples(n):
                want = max(abs(ev.formula(phi, a) - ev.formula(phi, b)) for phi in eng.family(n))
                assert eng.value(0, a, b) == want, (a, b)
    for a in eng.tuples(1):
        for b in eng.tuples(1):
            assert eng.value(1, a, b) == brute_successor(eng, a, b)
    for q in (F(1, 10), F(1, 2**70)):
        assert eng.oracle_equivalence(q).ok


def test_rank_not_definitive_without_checked_tables(three_point):
    # table cap 1 leaves no arity below the cap, so no stage pair is compared
    eng = BFEngine(three_point, config=EngineConfig(max_arity=1, table_cap=1))
    report = eng.scott_rank()
    assert report.stable == {}
    assert not report.definitive
    assert report.rank is None and report.checkable_stages == -1


def test_table_budget_is_checked_before_building(square):
    # 4 points at table cap 7: sum of (4^n)^2 for n = 1..7 stage-0 cells
    eng = BFEngine(square, config=EngineConfig(table_cap=7))
    emitted = {key: len(e._emitted) for key, e in _ENUM_CACHE.items()}
    with pytest.raises(TableBudgetError, match="286,331,152 cells"):
        eng.scott_rank()
    assert eng._tables == {} and not eng._built
    # no family was enumerated for the refused build
    assert {key: len(e._emitted) for key, e in _ENUM_CACHE.items()} == emitted
    # a large arity cap reaches the same budget through the automatic cap
    with pytest.raises(TableBudgetError):
        BFEngine(square, config=EngineConfig(max_arity=10)).gamma_fixpoint(F(1, 10))
    # r0_pair builds only the 2 x 2 table of its own pair, so the cap does
    # not limit it
    value, _ = eng.r0_pair(("a",), ("b",))
    assert value == 0
