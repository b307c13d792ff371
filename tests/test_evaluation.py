import tracemalloc
from fractions import Fraction as F

import pytest

from mscott.evaluation import (
    Evaluator,
    UnassignedVariable,
)
from mscott.family import family_stack
from mscott.moduli import SumWeakModulus
from mscott.parser import parse_formula, parse_term
from mscott.structures import load_structure
from mscott.syntax import (
    SegF,
    basic_atomics,
    canonical_modulus,
    eval_connective,
    formula_free_vars,
)


def test_eval_term_examples(data_dir):
    ev = Evaluator(load_structure(data_dir / "rel_demo.ms"))
    assert ev.term(parse_term("v0"), ("u", "v")) == "u"
    assert ev.term(parse_term("c"), ("v",)) == "u"
    assert ev.term(parse_term("f(v1)"), ("u", "v")) == "w"
    with pytest.raises(UnassignedVariable):
        ev.term(parse_term("v3"), ("u",))


def test_eval_formula_examples(three_point):
    sig = three_point.signature
    ev = Evaluator(three_point)
    assert ev.formula(parse_formula("d(v0, v1)", sig), ("x", "y")) == F(1, 5)
    sup = parse_formula("sup v1 . d(v0, v1)", sig)
    assert ev.formula(sup, ("x",)) == F(2, 5)
    inf = parse_formula("inf v1 . d(v0, v1)", sig)
    assert ev.formula(inf, ("x",)) == 0


def test_eval_lattice_arithmetic(three_point):
    sig = three_point.signature
    ev = Evaluator(three_point)
    # min(1, (1/2)(d(v0,v1) + d(v1,v2))) is the diagonal segment connective;
    # at d-values 1/5 and 3/5 it evaluates to 2/5
    mean = parse_formula(
        "seg(linear(1,1); (0,0); (1,1); 0; 1; d(v0, v1), d(v1, v2))", sig
    )
    assert ev.formula(mean, ("x", "y", "z")) == F(2, 5)
    halved = parse_formula("pwl((0,0),(1,1/2); latmax(d(v0, v1), d(v1, v2)))", sig)
    assert ev.formula(halved, ("x", "y", "z")) == F(3, 10)


def _agree(phi, s, t):
    """The tree walk equals the connective evaluated at the atomics' values."""
    ev = Evaluator(s)
    at_atomics = {a: ev.formula(a, t) for a in basic_atomics(phi)}
    return ev.formula(phi, t) == eval_connective(phi, at_atomics)


def test_two_evaluator_passes_agree(three_point, corpus, data_dir):
    formulas = [
        "d(v0, v1)",
        "latmin(d(v0, v1), const(1/2))",
        "latmax(pwl((0,0),(1/2,1),(1,1); d(v0, v1)), d(v1, v0))",
        "seg(linear(1); (0); (1); 0; 1; d(v0, v1))",
    ]
    for s in [three_point] + corpus[:5]:
        for text in formulas:
            phi = parse_formula(text, s.signature)
            for t in s.tuples(2):
                assert _agree(phi, s, t)
    # family members: relation atomics and segments over several atomics
    rel = load_structure(data_dir / "rel_demo.ms")
    family = family_stack(rel.signature, SumWeakModulus(), 2, 50)
    assert any(isinstance(phi, SegF) and len(basic_atomics(phi)) > 1 for phi in family)
    assert any(a.relation != "d" for phi in family for a in basic_atomics(phi))
    for phi in family:
        for t in rel.tuples(2):
            assert _agree(phi, rel, t)


def test_monotone_connectives(three_point):
    sig = three_point.signature
    phi_min = parse_formula("latmin(d(v0, v1), d(v1, v2))", sig)
    phi_max = parse_formula("latmax(d(v0, v1), d(v1, v2))", sig)
    ev = Evaluator(three_point)
    for t in three_point.tuples(3):
        lo = ev.formula(phi_min, t)
        hi = ev.formula(phi_max, t)
        assert lo <= hi


def test_respects_canonical_modulus(corpus, three_point):
    texts = [
        "d(v0, v1)",
        "latmin(d(v0, v1), const(1/3))",
        "pwl((0,0),(1/2,1),(1,1); d(v0, v1))",
        "sup v1 . d(v0, v1)",
        "seg(linear(1); (0); (1); 0; 1; d(v0, v1))",
    ]
    for s in [three_point] + corpus[:6]:
        for text in texts:
            phi = parse_formula(text, s.signature)
            fv = formula_free_vars(phi)
            n = (max(fv) + 1) if fv else 1
            canon = canonical_modulus(phi, s.signature, n)
            ev = Evaluator(s)
            for ta in s.tuples(n):
                for tb in s.tuples(n):
                    gap = abs(ev.formula(phi, ta) - ev.formula(phi, tb))
                    dists = tuple(s.d(a, b) for a, b in zip(ta, tb))
                    assert gap <= canon(dists)


def test_evaluator_cache_transparent(three_point):
    sig = three_point.signature
    phi = parse_formula("sup v1 . sup v2 . latmin(d(v0, v1), d(v1, v2))", sig)
    ev = Evaluator(three_point)
    first = ev.formula(phi, ("x",))
    again = ev.formula(phi, ("x",))
    fresh = Evaluator(three_point).formula(phi, ("x",))
    assert first == again == fresh


def test_nested_quantifiers_use_bounded_memory(data_dir):
    # five nested sups over nine points visit 9^5 assignments; memory
    # must stay at the depth of the formula, not grow with the visits
    line = load_structure(data_dir / "line9.ms")
    phi = parse_formula("sup v1 . sup v2 . sup v3 . sup v4 . sup v5 . d(v0, v5)", line.signature)
    ev = Evaluator(line)
    tracemalloc.start()
    try:
        value = ev.formula(phi, (line.points[0],))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 1 << 20
