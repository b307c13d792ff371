import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mscott.family import lattice_approximate, respects_weak_modulus
from mscott.moduli import CappedLinear, Linear, PolyhedralMax, SumWeakModulus, pi_fold
from mscott.parser import parse_formula, print_formula
from mscott.rationals import RatGrid, vec_sub
from mscott.segments import make_segment, segment_norm_bound
from mscott.syntax import EMPTY_SIGNATURE, MaxF, MinF, SegF

GRID8 = RatGrid(1, F(1, 8), F(1))
D01 = (parse_formula("d(v0, v1)"),)


def test_make_segment_plane_diagonal():
    seg = make_segment(Linear((F(1), F(1))), (F(0), F(0)), (F(1), F(1)), F(0), F(1))
    assert seg((F(1), F(1))) == 1
    assert seg((F(0), F(0))) == 0
    assert seg((F(1, 2), F(1, 2))) == F(1, 2)
    assert seg((F(1, 4), F(1, 4))) == F(1, 4)  # min(1, (z0+z1)/2)


def test_make_segment_degenerate_constant():
    seg = make_segment(Linear((F(1),)), (F(1, 3),), (F(1, 3),), F(1, 3), F(1, 3))
    assert seg.degenerate
    assert seg((F(9, 10),)) == F(1, 3)
    with pytest.raises(ValueError):
        make_segment(Linear((F(1),)), (F(0),), (F(0),), F(0), F(1, 2))


def test_make_segment_side_condition_rejected():
    with pytest.raises(ValueError) as err:
        make_segment(Linear((F(1, 4),)), (F(0),), (F(1),), F(1, 2), F(1))
    assert "side condition" in str(err.value)


def test_segment_boundary_slope_allowed():
    # b = a + span is accepted and stays modulus-respecting
    seg = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(0), F(1))
    axis = GRID8.axis()
    for z in axis:
        for w in axis:
            assert abs(seg((z,)) - seg((w,))) <= abs(z - w)


def test_segment_respects_modulus_on_grid():
    delta = Linear((F(1), F(1)))
    seg = make_segment(delta, (F(0), F(1, 2)), (F(1), F(1)), F(1, 4), F(3, 4))
    pts = list(RatGrid(2, F(1, 4), F(1)).points())
    for z in pts:
        for w in pts:
            assert abs(seg(z) - seg(w)) <= delta(pi_fold(vec_sub(z, w)))


def test_norm_bound_zero_for_equal():
    s = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(0), F(3, 4))
    assert segment_norm_bound(s, s, GRID8) == 0


def test_norm_bound_perturbed_a():
    s1 = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(0), F(1, 2))
    s2 = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(1, 10), F(3, 5))
    bound = segment_norm_bound(s1, s2, GRID8)
    assert bound == F(1, 10)  # same anchors and slope: only |a - a'| contributes
    measured = max(abs(s1((x,)) - s2((x,))) for x in GRID8.axis())
    assert measured <= bound


def test_norm_bound_rejects_mismatch_and_degenerate():
    s1 = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(0), F(1, 2))
    s2 = make_segment(Linear((F(2),)), (F(0),), (F(1),), F(0), F(1, 2))
    with pytest.raises(ValueError):
        segment_norm_bound(s1, s2, GRID8)
    sc = make_segment(Linear((F(1),)), (F(0),), (F(0),), F(1, 4), F(1, 4))
    with pytest.raises(ValueError):
        segment_norm_bound(s1, sc, GRID8)


def _random_segment(rng: random.Random, delta):
    while True:
        x = (F(rng.randint(0, 8), 8),)
        y = (F(rng.randint(0, 8), 8),)
        span = delta(pi_fold(vec_sub(y, x)))
        if span == 0:
            continue
        a = F(rng.randint(0, 8), 8)
        top = min(F(1), a + span)
        b = a + (top - a) * F(rng.randint(0, 4), 4)
        return make_segment(delta, x, y, a, b)


def test_norm_bound_random_pairs():
    rng = random.Random(7)
    delta = Linear((F(1),))
    for _ in range(1000):
        s1 = _random_segment(rng, delta)
        s2 = _random_segment(rng, delta)
        bound = segment_norm_bound(s1, s2, GRID8)
        measured = max(abs(s1((z,)) - s2((z,))) for z in GRID8.axis())
        assert measured <= bound


def test_approximate_segment_target_exact():
    seg = make_segment(Linear((F(1),)), (F(0),), (F(1),), F(0), F(3, 4))
    res = lattice_approximate(lambda p: seg(p), Linear((F(1),)), F(1, 8), D01, grid=GRID8)
    assert res.succeeded and res.deviation == 0


def test_approximate_constant_target():
    res = lattice_approximate(lambda p: F(1, 2), Linear((F(1),)), F(1, 8), D01, grid=GRID8)
    assert res.succeeded and res.deviation == 0


def test_approximate_square_with_its_lipschitz_modulus():
    res = lattice_approximate(lambda p: p[0] * p[0], Linear((F(2),)), F(1, 8), D01, grid=GRID8)
    assert res.succeeded and res.deviation < F(1, 8)


def test_approximate_rejects_disrespectful_target():
    with pytest.raises(ValueError):
        lattice_approximate(lambda p: p[0] * p[0], Linear((F(1),)), F(1, 8), D01, grid=GRID8)


def test_approximate_budget_failure_reports_best():
    # the budget bounds anchors x sample points: the 9 anchors of the 1/8
    # grid are halved to 5, 3, 2, 1, and one anchor's 9 segments are the floor
    for budget, meets, leaves, succeeded in [(4, 1, 9, False), (26, 2, 18, True),
                                             (27, 3, 27, True)]:
        res = lattice_approximate(
            lambda p: p[0], Linear((F(1),)), F(1, 100), D01, budget=budget, grid=GRID8
        )
        assert (len(res.term.items), res.leaves, res.succeeded) == (meets, leaves, succeeded)
        assert res.leaves <= max(budget, len(GRID8.axis()))
        assert res.deviation >= 0  # honest report either way


def test_approximant_is_a_join_of_meets_of_segments():
    res = lattice_approximate(lambda p: p[0] * p[0], Linear((F(2),)), F(1, 8), D01, grid=GRID8)
    assert isinstance(res.term, MaxF)
    assert all(isinstance(m, MinF) for m in res.term.items)
    leaves = [seg for m in res.term.items for seg in m.items]
    assert all(isinstance(seg, SegF) and seg.args == D01 for seg in leaves)
    assert res.leaves == len(leaves)


def test_approximant_round_trips_through_the_parser():
    res = lattice_approximate(lambda p: p[0] * p[0], Linear((F(2),)), F(1, 8), D01, grid=GRID8)
    assert parse_formula(print_formula(res.term)) == res.term


def test_approximant_passes_the_respects_check():
    # d(v0, v1) under the sum weak modulus induces linear(1)
    res = lattice_approximate(
        lambda p: min(F(1), F(1, 4) + p[0] / 2), Linear((F(1),)), F(1, 8), D01, grid=GRID8
    )
    assert res.succeeded
    assert respects_weak_modulus(res.term, EMPTY_SIGNATURE, SumWeakModulus()).respects
    # the check has teeth: an approximant of slope 2 outruns linear(1)
    steep = lattice_approximate(lambda p: p[0] * p[0], Linear((F(2),)), F(1, 8), D01, grid=GRID8)
    assert not respects_weak_modulus(steep.term, EMPTY_SIGNATURE, SumWeakModulus()).respects


def test_approximate_rejects_bad_atomics():
    for atomics in ((), D01 * 2):
        with pytest.raises(ValueError, match="need 1 atomics"):
            lattice_approximate(lambda p: p[0], Linear((F(1),)), F(1, 8), atomics, grid=GRID8)
    pair = Linear((F(1), F(1)))
    grid2 = RatGrid(2, F(1, 2), F(1))
    with pytest.raises(ValueError, match="distinct"):
        lattice_approximate(lambda p: p[0] / 2, pair, F(1, 8), D01 * 2, grid=grid2)


def test_rational_data_coarsening_within_bound():
    # replacing fine rational data by coarser data moves the segment by at
    # most the norm bound (uniform-norm soundness of rational thinning)
    delta = Linear((F(1),))
    fine = make_segment(delta, (F(1, 16),), (F(15, 16),), F(1, 16), F(13, 16))
    coarse = make_segment(delta, (F(0),), (F(1),), F(0), F(3, 4))
    bound = segment_norm_bound(fine, coarse, GRID8)
    measured = max(abs(fine((z,)) - coarse((z,))) for z in GRID8.axis())
    assert measured <= bound


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_segment_unit_range(xi, yi, ai):
    x, y, a = F(xi, 8), F(yi, 8), F(ai, 8)
    delta = Linear((F(1),))
    span = delta(pi_fold((y - x,)))
    b = min(F(1), a + span) if span > 0 else a
    seg = make_segment(delta, (x,), (y,), a, b)
    for z in GRID8.axis():
        assert 0 <= seg((z,)) <= 1


FINE = st.fractions(0, 1, max_denominator=10**8)  # unit values up to 8-digit denominators


@st.composite
def segments_and_points(draw):
    """A valid segment of arity 1-3 over a Linear, PolyhedralMax or (not
    linear) CappedLinear delta, and points of [0,1]^k to evaluate it at."""
    k = draw(st.integers(1, 3))
    coeffs = st.tuples(*[st.fractions(0, 4, max_denominator=1000)] * k)
    delta = draw(st.one_of(
        st.builds(Linear, coeffs),
        st.builds(PolyhedralMax, st.lists(coeffs, min_size=1, max_size=3).map(tuple)),
        st.builds(CappedLinear, st.fractions(F(1, 8), 2, max_denominator=100), coeffs),
    ))
    vec = st.tuples(*[FINE] * k)
    x = draw(vec)
    y = draw(st.one_of(st.just(x), vec))
    a = draw(FINE)
    span = delta(pi_fold(vec_sub(y, x)))
    b = a + draw(st.fractions(0, 1, max_denominator=10**8)) * min(span, 1 - a)
    return make_segment(delta, x, y, a, b), draw(st.lists(vec, min_size=1, max_size=12))


@given(segments_and_points())
@settings(max_examples=100, deadline=None)
# degenerate: constant a
@example((make_segment(Linear((F(1), F(1))), (F(1, 3), F(1, 7)), (F(1, 3), F(1, 7)),
                       F(2, 5), F(2, 5)), [(F(0), F(1)), (F(99999999, 10**8), F(1, 3))]))
# a + rise clips at 1 beyond z = 1/4
@example((make_segment(PolyhedralMax(((F(2), F(0)), (F(1, 3), F(5)))), (F(0), F(0)),
                       (F(1, 8), F(0)), F(1, 2), F(3, 4)),
          [(F(0), F(0)), (F(1, 16), F(0)), (F(1, 4), F(0)), (F(1), F(3, 10**8))]))
# a delta that is not linear takes the pointwise route
@example((make_segment(CappedLinear(F(1, 2), (F(1),)), (F(0),), (F(1),), F(0), F(1, 2)),
          [(F(1, 10**8),), (F(1, 4),), (F(3, 4),)]))
def test_column_matches_pointwise(case):
    seg, points = case
    cols = [[p[i] for p in points] for i in range(seg.arity)]
    got = seg.column(cols)
    assert got == [seg(p) for p in points]
    assert all(type(v) is F for v in got)
