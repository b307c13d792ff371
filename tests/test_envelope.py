"""Largest-modulus-below envelope and the induced connective modulus."""

import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscott.moduli import (
    Linear,
    ModulusWindowError,
    PolyhedralMax,
    SumWeakModulus,
    check_modulus,
    induced_connective_modulus,
    induced_modulus_exact,
    largest_modulus_below,
)
from mscott.rationals import RatGrid, format_rational, format_vec

OMEGA = SumWeakModulus()
PKG_ROOT = Path(__file__).resolve().parent.parent


def brute_envelope_1d(samples: dict, k_max: int, x: F) -> F:
    """Independent oracle: exhaustive search over multisets of sample points."""
    pts = [p for (p,), v in samples.items() if p > 0]
    best = None
    if x == 0:
        return F(0)
    for k in range(1, k_max + 1):
        for combo in combinations_with_replacement(pts, k):
            if sum(combo) >= x:
                cost = sum(samples[(p,)] for p in combo)
                best = cost if best is None or cost < best else best
    return best


def test_identity_envelope_is_identity():
    g = RatGrid(1, F(1, 8), F(1))
    env = largest_modulus_below(lambda p: p[0], 8, grid=g)
    for x in g.axis():
        assert env((x,)) == x
    assert env((F(1, 3),)) == F(1, 3)  # interpolation is exact for linear data


def test_sqrt_table_envelope_unchanged():
    axis = RatGrid(1, F(1, 8), F(1)).axis()
    samples = {(v * v,): v for v in axis}
    env = largest_modulus_below(samples, 8)
    for v in axis:
        assert env((v * v,)) == v


def test_capped_linear_envelope_unchanged():
    g = RatGrid(1, F(1, 8), F(1))
    env = largest_modulus_below(lambda p: min(F(1), 2 * p[0]), 8, grid=g)
    for x in g.axis():
        assert env((x,)) == min(F(1), 2 * x)


def test_square_envelope_values_and_refinement():
    g8 = RatGrid(1, F(1, 8), F(1))
    samples8 = {(x,): x * x for x in g8.axis()}
    env8 = largest_modulus_below(samples8, 8)
    # oracle first: decomposing 1 into eight 1/8 pieces costs 8 * (1/8)^2
    assert brute_envelope_1d(samples8, 8, F(1)) == F(1, 8)
    assert env8((F(1),)) == F(1, 8)

    g16 = RatGrid(1, F(1, 16), F(1))
    env16 = largest_modulus_below(lambda p: p[0] * p[0], 16, grid=g16)
    assert env16((F(1),)) == F(1, 16)
    # refinement never increases the envelope
    for x in g8.axis():
        assert env16((x,)) <= env8((x,))


def test_square_envelope_matches_bruteforce_everywhere():
    g = RatGrid(1, F(1, 4), F(1))
    samples = {(x,): x * x for x in g.axis()}
    env = largest_modulus_below(samples, 4)
    for x in g.axis():
        assert env((x,)) == brute_envelope_1d(samples, 4, x)


def test_envelope_mixed_denominators_match_bruteforce_on_whole_axis():
    # x^2 + x/3 on a 1/6 grid: sample values over denominators 3, 9, 12 and
    # 36, and the axis runs past the samples to k_max times the largest
    g = RatGrid(1, F(1, 6), F(1))
    samples = {(x,): x * x + x / 3 for x in g.axis()}
    assert len({v.denominator for v in samples.values()}) > 3
    env = largest_modulus_below(samples, 3)
    assert env.window == (F(3),)
    for i in range(19):
        x = F(i, 6)
        assert env((x,)) == brute_envelope_1d(samples, 3, x), x


def test_approximation_demo_runs():
    # the demo builds the x^2 envelope at grid 1/8, k_max 8 and 1/16, k_max 16
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "scripts" / "approximation_demo.py")],
        capture_output=True, text=True, cwd=PKG_ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("modulus check: pass") == 2, proc.stdout


def test_envelope_below_f_and_checks():
    g = RatGrid(1, F(1, 8), F(1))
    env = largest_modulus_below(lambda p: p[0] * p[0], 8, grid=g)
    for x in g.axis():
        assert env((x,)) <= x * x
    assert check_modulus(env, g).passed


def test_envelope_maximality_on_samples():
    # any shipped-form modulus below f at the samples stays below the envelope
    g = RatGrid(1, F(1, 8), F(1))
    env = largest_modulus_below(lambda p: p[0] * p[0], 8, grid=g)
    for x in g.axis():
        assert env((x,)) == x / 8  # this envelope is exactly x/8 on-grid
    candidates = [Linear((F(1, 8),)), Linear((F(1, 16),))]
    for h in candidates:
        for x in g.axis():
            assert h((x,)) <= x * x  # h is genuinely below f at the samples
            assert h((x,)) <= env((x,))


def test_envelope_k_max_monotone():
    g = RatGrid(1, F(1, 8), F(1))
    samples = {(x,): x * x for x in g.axis()}
    e4 = largest_modulus_below(samples, 4)
    e8 = largest_modulus_below(samples, 8)
    for x in g.axis():
        assert e8((x,)) <= e4((x,))


def test_envelope_samples_a_callable_on_a_2d_grid():
    g = RatGrid(2, F(1, 4), F(1))
    pts = list(g.points())
    assert len(pts) == 25
    from_callable = largest_modulus_below(lambda p: max(p), 4, grid=g)
    from_mapping = largest_modulus_below({p: max(p) for p in pts}, 4)
    assert from_callable.table() == from_mapping.table()


def test_envelope_rejects_bad_input():
    with pytest.raises(ValueError):
        largest_modulus_below({(F(0),): F(1, 2)}, 4)  # f(0) != 0
    with pytest.raises(ValueError):
        largest_modulus_below({(F(0),): F(0), (F(1, 2),): F(1), (F(1),): F(1, 2)}, 4)
    with pytest.raises(ValueError):
        largest_modulus_below(lambda p: p[0], 4)  # callable without grid


@given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_envelope_names_the_first_decrease_of_a_pairwise_scan(values):
    samples = {(F(0),): F(0)} | {(F(i + 1, 8),): F(v, 8) for i, v in enumerate(values)}
    items = sorted(samples.items())
    first = next(
        ((p, vp, q, vq) for p, vp in items for q, vq in items if p <= q and vp > vq), None
    )
    if first is None:
        largest_modulus_below(samples, 4)
        return
    p, vp, q, vq = first
    message = (
        f"f decreases from {format_vec(p)} to {format_vec(q)}: "
        f"{format_rational(vp)} > {format_rational(vq)}"
    )
    with pytest.raises(ValueError) as info:
        largest_modulus_below(samples, 4)
    assert str(info.value) == message


def test_fine_grid_refused_before_sampling():
    calls = []

    def square(p):
        calls.append(p)
        return p[0] * p[0]

    grid = RatGrid(1, F(1, 100000), F(1))
    with pytest.raises(ModulusWindowError, match="^sample coordinates refine to 800001 axis "):
        largest_modulus_below(square, 8, grid=grid)
    assert calls == []
    # a mapping is refused from its keys, before its decrease is looked for
    samples = {(x,): F(1) - x for x in RatGrid(1, F(1, 1000), F(1)).axis()}
    samples[(F(0),)] = F(0)
    with pytest.raises(ModulusWindowError, match="refine to 8001 axis points"):
        largest_modulus_below(samples, 8)


@given(
    st.fractions(min_value=F(1, 30), max_value=3, max_denominator=30),
    st.fractions(min_value=F(1, 30), max_value=3, max_denominator=30),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_grid_refusal_from_step_and_bound(step, bound, k_max):
    """A 1-d grid refused before sampling is refused, with the same count,
    exactly when the axis through all of its points is."""
    axis = RatGrid(1, step, bound).axis()
    try:
        largest_modulus_below({(x,): x for x in axis}, k_max)
        expected = None
    except ModulusWindowError as err:
        expected = str(err)
    calls = []

    def identity(p):
        calls.append(p)
        return p[0]

    try:
        largest_modulus_below(identity, k_max, grid=RatGrid(1, step, bound))
        assert expected is None and len(calls) == len(axis)
    except ModulusWindowError as err:
        assert str(err) == expected and calls == []


@given(
    st.lists(
        st.integers(min_value=0, max_value=64), min_size=4, max_size=6
    ).map(sorted),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_envelope_matches_bruteforce_random(monotone_values, k_max):
    # random nondecreasing sample data on {0, 1/4, 1/2, 3/4, 1}
    axis = [F(i, 4) for i in range(5)]
    vals = [F(0)] + [F(v, 64) for v in monotone_values[: len(axis) - 1]]
    samples = dict(zip([(x,) for x in axis], vals))
    env = largest_modulus_below(samples, k_max)
    for x in axis:
        assert env((x,)) == brute_envelope_1d(samples, k_max, x)


def test_induced_identity():
    ind = induced_connective_modulus(
        [Linear((F(1), F(1)))], OMEGA, 8, RatGrid(2, F(1, 8), F(1))
    )
    for r in RatGrid(1, F(1, 8), F(2)).axis():
        assert ind((r,)) == r


def test_induced_halving():
    ind = induced_connective_modulus([Linear((F(2),))], OMEGA, 8, RatGrid(1, F(1, 8), F(1)))
    assert ind((F(1, 2),)) == F(1, 4)
    assert ind((F(2),)) == F(1)


def test_induced_two_equal_atomics_is_max():
    d = Linear((F(1), F(1)))
    ind = induced_connective_modulus([d, d], OMEGA, 6, RatGrid(2, F(1, 4), F(1)))
    # brute-force oracle: f(r0, r1) = min{x0+x1 : x0+x1 >= max(r0, r1)}
    for r0 in RatGrid(1, F(1, 4), F(1)).axis():
        for r1 in RatGrid(1, F(1, 4), F(1)).axis():
            assert ind((r0, r1)) == max(r0, r1)


def test_induced_rejects_zero_atomic():
    with pytest.raises(ValueError):
        induced_connective_modulus(
            [Linear((F(0), F(0)))], OMEGA, 4, RatGrid(2, F(1, 4), F(1))
        )


def test_exact_induced_linear_cases():
    assert induced_modulus_exact([(F(1), F(1))]) == Linear((F(1),))
    assert induced_modulus_exact([(F(2),)]) == Linear((F(1, 2),))
    two = induced_modulus_exact([(F(1), F(1)), (F(1), F(1))])
    assert isinstance(two, PolyhedralMax)
    assert two((F(1, 4), F(3, 4))) == F(3, 4)


def test_exact_induced_agrees_with_grid_pipeline():
    rows = [(F(1), F(1))]
    exact = induced_modulus_exact(rows)
    grid = induced_connective_modulus([Linear(rows[0])], OMEGA, 8, RatGrid(2, F(1, 8), F(1)))
    for r in RatGrid(1, F(1, 8), F(2)).axis():
        assert exact((r,)) == grid((r,))


def test_exact_induced_disjoint_pairs():
    # constraints on disjoint variables add up
    rows = [(F(1), F(1), F(0), F(0)), (F(0), F(0), F(1), F(1))]
    ind = induced_modulus_exact(rows)
    assert ind((F(1, 4), F(1, 2))) == F(3, 4)


def test_exact_induced_shared_variable_triangle():
    # the 3-cycle of pair constraints admits the half-sum dual point
    rows = [
        (F(1), F(1), F(0)),
        (F(1), F(0), F(1)),
        (F(0), F(1), F(1)),
    ]
    ind = induced_modulus_exact(rows)
    assert ind((F(1), F(1), F(1))) == F(3, 2)
    assert ind((F(1), F(0), F(0))) == F(1)
