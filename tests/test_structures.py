from fractions import Fraction as F

import pytest

from mscott.moduli import Linear
from mscott.structures import (
    PreStructure,
    StructureFormatError,
    StructureInvalid,
    automorphisms,
    build_metric,
    dump_structure,
    load_structure,
    loads_structure,
    parse_structure,
    validate,
)
from mscott.syntax import FunctionSymbol, RelationSymbol, Signature


def test_load_two_point_file(data_dir):
    s = load_structure(data_dir / "two_point.ms")
    assert s.points == ("p", "q")
    assert s.d("p", "q") == F(1, 2)
    assert s.d("q", "p") == F(1, 2)
    assert s.d("p", "p") == 0


def test_triangle_violation_witness():
    text = """mscott/1
[signature]
[points]
x y z
[metric]
1/5
2/5 7/10
"""
    with pytest.raises(StructureInvalid) as err:
        loads_structure(text)
    kinds = {v.kind for v in err.value.violations}
    assert "metric-triangle" in kinds
    witness = next(v for v in err.value.violations if v.kind == "metric-triangle")
    assert set(witness.witness) == {"x", "y", "z"}


def test_relation_modulus_violation():
    text = """mscott/1
[signature]
rel R 1 linear(1)
[points]
p q
[metric]
1/2
[rel R]
p 0
q 1
"""
    with pytest.raises(StructureInvalid) as err:
        loads_structure(text)
    v = next(v for v in err.value.violations if v.kind == "relation-modulus")
    assert "1/2" in v.message  # bound named in the witness


def test_function_modulus_violation():
    text = """mscott/1
[signature]
fun f 1 linear(1)
[points]
p q r
[metric]
1/8
1/2 1/2
[fun f]
p p
q r
r r
"""
    # d(f(p), f(q)) = d(p, r) = 1/2 > 1/8 = d(p, q)
    with pytest.raises(StructureInvalid) as err:
        loads_structure(text)
    assert any(v.kind == "function-modulus" for v in err.value.violations)


def test_rows_outside_the_domain_rejected():
    # a row naming no point, and a row of the wrong length, in each table;
    # the in-domain rows are total and respect the moduli
    text = """mscott/1
[signature]
rel R 1 linear(1)
fun f 1 linear(1)
[points]
x y
[metric]
1
[rel R]
x 1/2
y 1/2
q 1
x y 3
[fun f]
x y
y x
q x
x y x
"""
    with pytest.raises(StructureInvalid) as err:
        loads_structure(text)
    got = [(v.kind, v.witness) for v in err.value.violations]
    assert got == [
        ("relation-domain", ("q",)), ("relation-domain", ("x", "y")),
        ("function-domain", ("q",)), ("function-domain", ("x", "y")),
    ]
    assert str(err.value.violations[0]) == "relation-domain: R('q',) is not a 1-tuple of points"


def test_symmetry_violation_in_memory():
    s = PreStructure(
        signature=Signature(),
        points=("p", "q"),
        metric={("p", "p"): F(0), ("q", "q"): F(0), ("p", "q"): F(1, 2), ("q", "p"): F(1, 3)},
    )
    kinds = {v.kind for v in validate(s)}
    assert "metric-symmetric" in kinds


def test_validate_returns_at_most_max_violations():
    # 100 triangle violations (d(pi, pk) = 1 > 1/10 + 1/10 through any of the
    # last five points), then one per symbol declared without a table
    pts = tuple(f"p{i}" for i in range(10))
    lower = [[F(1) if j < i < 5 else F(1, 10) for j in range(i)] for i in range(1, 10)]
    sig = Signature(
        relations=(RelationSymbol("R", 1, Linear((F(1),))),),
        functions=(FunctionSymbol("f", 1, Linear((F(1),))),),
        constants=("a", "b", "c"),
    )
    s = PreStructure(signature=sig, points=pts, metric=build_metric(pts, lower))
    full = validate(s, 1000)
    assert [v.kind for v in full] == ["metric-triangle"] * 100 + [
        "relation-total", "function-total", "constant-total", "constant-total", "constant-total"
    ]
    for cap in (0, 1, 50, 100, 101, 104, 105):
        assert validate(s, cap) == full[:cap]


def test_separation_and_pseudometric_flag():
    metric = build_metric(("p", "q"), [[F(0)]])
    s = PreStructure(signature=Signature(), points=("p", "q"), metric=metric)
    assert any(v.kind == "metric-separating" for v in validate(s))
    sp = PreStructure(
        signature=Signature(), points=("p", "q"), metric=metric, pseudometric=True
    )
    assert validate(sp) == []
    header = "mscott/1 pseudometric\n[signature]\n[points]\np q\n[metric]\n0\n"
    assert loads_structure(header).pseudometric


def test_metric_range_rejected():
    text = "mscott/1\n[signature]\n[points]\np q\n[metric]\n3/2\n"
    with pytest.raises(StructureInvalid) as err:
        loads_structure(text)
    assert any(v.kind == "metric-range" for v in err.value.violations)


def test_format_errors():
    with pytest.raises(StructureFormatError):
        parse_structure("nonsense/9\n")
    with pytest.raises(StructureFormatError):
        parse_structure("mscott/1\n[points]\np q\n[metric]\n")  # missing row
    with pytest.raises(StructureFormatError):
        parse_structure("mscott/1\n[points]\np\n[rel R]\np 1\n")  # undeclared table


def test_dump_load_roundtrip(data_dir):
    s = load_structure(data_dir / "rel_demo.ms")
    s2 = loads_structure(dump_structure(s), name=s.name)
    assert s2.points == s.points
    assert s2.metric == s.metric
    assert s2.relations == s.relations
    assert s2.functions == s.functions
    assert s2.constants == s.constants


def test_validate_valid_is_empty(corpus):
    for s in corpus:
        assert validate(s) == []


def test_automorphisms_two_point(two_point):
    autos = automorphisms(two_point)
    assert {tuple(sorted(a.items())) for a in autos} == {
        (("p", "p"), ("q", "q")),
        (("p", "q"), ("q", "p")),
    }


def test_automorphisms_square(square):
    assert len(automorphisms(square)) == 8  # the dihedral group of the 4-cycle


def test_automorphisms_respect_relations():
    sig = Signature(relations=(RelationSymbol("R", 1, Linear((F(1),))),))
    metric = build_metric(("p", "q"), [[F(1, 2)]])
    s = PreStructure(
        signature=sig,
        points=("p", "q"),
        metric=metric,
        relations={"R": {("p",): F(0), ("q",): F(1, 2)}},
    )
    assert validate(s) == []
    autos = automorphisms(s)
    assert len(autos) == 1  # the swap breaks R
