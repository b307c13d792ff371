from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscott.moduli import (
    CappedLinear,
    Compose,
    Linear,
    MaxOf,
    PiecewiseConcave,
    PolyhedralMax,
    SumWeakModulus,
    Zero,
    check_modulus,
    is_zero_modulus,
    linear_upper_row,
    pi_fold,
    projection,
    simplify_modulus,
    weak_modulus,
)
from mscott.rationals import RatGrid


def grid1(step="1/4", bound="1"):
    return RatGrid(1, F(step), F(bound))


def test_pi_fold():
    assert pi_fold((F(-1, 2), F(1, 3))) == (F(1, 2), F(1, 3))
    assert pi_fold((F(0), F(0))) == (F(0), F(0))
    assert pi_fold((F(-2),)) == (F(2),)


def test_eval_examples():
    assert Linear((F(1), F(1)))((F(1, 4), F(1, 2))) == F(3, 4)
    assert CappedLinear(F(1), (F(2), F(2)))((F(1, 2), F(1, 2))) == 1
    assert Zero(3)((F(1), F(2), F(3))) == 0


def test_eval_arity_mismatch():
    with pytest.raises(ValueError):
        Linear((F(1),))((F(1), F(2)))


def test_check_linear_passes():
    assert check_modulus(Linear((F(1), F(1))), RatGrid(2, F(1, 2), F(1))).passed


def test_check_capped_passes():
    # brute-force oracle first: min(1, 2x) is subadditive on the grid
    axis = grid1().axis()
    f = lambda x: min(F(1), 2 * x)
    for r in axis:
        for s in axis:
            if r + s <= 1:
                assert f(r) <= f(r + s) <= f(r) + f(s)
    assert check_modulus(CappedLinear(F(1), (F(2),)), grid1()).passed


def test_square_rejected_then_fails_check():
    # x^2 is convex, so the concave-pwl constructor rejects it ...
    with pytest.raises(ValueError):
        PiecewiseConcave(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))

    # ... and a force-constructed stand-in fails subadditivity on {0,1/2,1}:
    # 1 = f(1) > f(1/2) + f(1/2) = 1/2.
    class _Square(Linear):
        def _eval(self, xs):
            return xs[0] * xs[0]

    rep = check_modulus(_Square((F(1),)), RatGrid(1, F(1, 2), F(1)))
    assert not rep.passed
    first = rep.first()
    assert first.kind == "subadditive"
    assert first.lhs == 1 and first.rhs == F(1, 2)


def test_piecewise_concave_eval_and_extension():
    m = PiecewiseConcave(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1), F(1))))
    assert m((F(1, 8),)) == F(1, 4)
    assert m((F(1, 2),)) == F(2, 3)
    # beyond the last breakpoint the final slope continues
    assert m((F(5, 2),)) == 1 + F(2, 3) * F(3, 2)
    assert check_modulus(m, grid1("1/8", "1")).passed


def test_maxof_restriction():
    a = Linear((F(1), F(2)))
    b = Linear((F(2), F(4)))
    m = MaxOf((a, b))
    assert m((F(1), F(1))) == 6
    with pytest.raises(ValueError):
        MaxOf((a, Linear((F(1), F(1)))))
    with pytest.raises(ValueError):
        MaxOf(())


def test_maxof_passes_check():
    m = MaxOf((Linear((F(1),)), CappedLinear(F(1, 2), (F(3),))))
    assert check_modulus(m, grid1("1/8")).passed


def test_polyhedral_max():
    m = PolyhedralMax(((F(1), F(0)), (F(0), F(1))))
    assert m((F(1, 4), F(3, 4))) == F(3, 4)
    assert check_modulus(m, RatGrid(2, F(1, 4), F(1))).passed
    with pytest.raises(ValueError):
        PolyhedralMax(((F(-1), F(0)),))


def test_compose_is_modulus():
    inner = CappedLinear(F(1), (F(2),))
    outer = PiecewiseConcave(((F(0), F(0)), (F(1), F(1, 2)), (F(2), F(3, 4))))
    m = Compose(outer, (inner,))
    assert check_modulus(m, grid1("1/8")).passed
    assert m((F(1, 2),)) == F(1, 2)


def test_simplify_collapses_linear_chain():
    m = Compose(Linear((F(2), F(1))), (Linear((F(1), F(0))), Linear((F(0), F(3)))))
    simple = simplify_modulus(m)
    assert isinstance(simple, Linear)
    assert simple.coeffs == (F(2), F(3))


def test_simplify_identity_inners():
    m = CappedLinear(F(1), (F(1), F(1)))
    assert simplify_modulus(Compose(m, (projection(2, 0), projection(2, 1)))) == m


def _agree_on_grid(a, b, step="1/4"):
    return all(a(p) == b(p) for p in RatGrid(a.arity, F(step), F(1)).points())


def test_simplify_collapses_every_outer_form_over_linear_inners():
    inners = (Linear((F(1), F(2))), Linear((F(3), F(0))))
    bps = ((F(0), F(0)), (F(1), F(1)), (F(2), F(3, 2)))
    cases = [
        (PiecewiseConcave(bps, (F(1), F(1, 2))), PiecewiseConcave(bps, (F(5, 2), F(2)))),
        (PolyhedralMax(((F(1), F(0)), (F(0), F(2)))),
         PolyhedralMax(((F(1), F(2)), (F(6), F(0))))),
    ]
    for outer, want in cases:
        m = Compose(outer, inners)
        assert simplify_modulus(m) == want
        assert _agree_on_grid(simplify_modulus(m), m)


def test_simplify_keeps_what_it_cannot_collapse():
    # a capped inner has no exact linear row, and MaxOf no collapsed form
    capped = Compose(Linear((F(2),)), (CappedLinear(F(1, 2), (F(3),)),))
    maxof = Compose(MaxOf((Linear((F(1),)), Linear((F(2),)))), (Linear((F(1), F(1))),))
    for m in (capped, maxof):
        assert simplify_modulus(m) == m
        assert _agree_on_grid(simplify_modulus(m), m)
    assert simplify_modulus(Linear((F(0), F(0)))) == Zero(2)


def test_zero_detection():
    assert is_zero_modulus(Zero(2))
    assert is_zero_modulus(Linear((F(0), F(0))))
    assert is_zero_modulus(Compose(Linear((F(1),)), (Zero(2),)))
    assert not is_zero_modulus(Linear((F(0), F(1))))


def test_linear_upper_row():
    assert linear_upper_row(Linear((F(1), F(2)))) == (F(1), F(2))
    assert linear_upper_row(CappedLinear(F(1), (F(3),))) == (F(3),)
    pwl = PiecewiseConcave(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1), F(1))))
    assert linear_upper_row(pwl) == (F(2),)
    comp = Compose(Linear((F(1), F(1))), (Linear((F(2),)), Linear((F(3),))))
    assert linear_upper_row(comp) == (F(5),)


@given(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=8),
                min_size=2, max_size=2))
@settings(max_examples=50)
def test_random_linear_always_checks(coeffs):
    m = Linear(tuple(coeffs))
    assert check_modulus(m, RatGrid(2, F(1, 2), F(1))).passed


def test_weak_modulus_slices():
    om = SumWeakModulus()
    s2, s4 = om.slice(2), om.slice(4)
    xs = (F(1, 3), F(1, 7))
    assert s2(xs) == s4(xs + (F(0), F(0)))  # slice consistency on samples
    assert check_modulus(s2, RatGrid(2, F(1, 2), F(1))).passed
    assert weak_modulus("sum") == om
    with pytest.raises(ValueError):
        weak_modulus("mystery")
