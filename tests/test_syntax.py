from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscott.moduli import Linear, Zero, check_modulus, is_zero_modulus, linear_upper_row
from mscott.parser import (
    ParseError,
    parse_formula,
    parse_formula_file,
    parse_modulus,
    parse_term,
    print_formula,
    print_modulus,
    print_term,
)
from mscott.rationals import RatGrid
from mscott.structures import StructureFormatError, parse_structure
from mscott.syntax import (
    Atomic,
    ConstF,
    MinF,
    Signature,
    RelationSymbol,
    FunctionSymbol,
    Sup,
    Var,
    basic_atomics,
    canonical_modulus,
    eval_connective,
    formula_free_vars,
    is_basic,
)

SIG = Signature(
    relations=(RelationSymbol("R", 1, Linear((F(1),))),),
    functions=(FunctionSymbol("f", 1, Linear((F(1),))),),
    constants=("c",),
)

ROUNDTRIP = [
    "d(v0, v1)",
    "sup v1 . d(v0, v1)",
    "inf v0 . d(v0, v1)",
    "latmin(d(v0, v1), const(1/2))",
    "latmax(R(v0), R(f(v1)))",
    "pwl((0,0),(1/3,1),(1,1); d(v0, v1))",
    "seg(linear(1); (0); (1); 0; 1; d(v0, v1))",
    "seg(linear(1,1); (0,0); (1,1); 0; 1; d(v0, v1), R(v0))",
    "sup v2 . latmin(d(v0, v2), d(v1, v2))",
    "d(f(v0), c)",
    "const(1)",
]

MODULUS_ROUNDTRIP = [
    "linear(1,1)",
    "capped(1; 2,2)",
    "pwl((0,0),(1/4,1/2),(1,1))",
    "pwl((0,0),(1,1); 1,2)",
    "zero(2)",
    "maxof(linear(1,2), linear(2,4))",
    "polymax((1,0),(0,1))",
    "compose(linear(1,1); linear(2), linear(3))",
    "compose(linear(1,0); zero(1), capped(1; 1))",  # identically 0
    "pwl((0,0),(1,0))",
    "maxof(linear(0), zero(1))",
]


def test_parse_examples():
    phi = parse_formula("d(v0, v1)")
    assert phi == Atomic("d", (Var(0), Var(1)))
    psi = parse_formula("sup v1 . d(v0, v1)")
    assert psi == Sup(1, Atomic("d", (Var(0), Var(1))))
    conn = parse_formula("latmin(d(v0, v1), const(1/2))")
    assert isinstance(conn, MinF) and conn.items[1] == ConstF(F(1, 2))


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_roundtrip(text):
    phi = parse_formula(text, SIG)
    assert parse_formula(print_formula(phi), SIG) == phi


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("latmin(d(v0, v1), ")
    assert err.value.line == 1 and err.value.column >= 18
    with pytest.raises(ParseError):
        parse_formula("d(v0 v1)")
    with pytest.raises(ParseError):
        parse_formula("sup x . d(v0, v1)")


def test_signature_validation_errors():
    with pytest.raises(ParseError):
        parse_formula("Q(v0)", SIG)  # unknown symbol
    with pytest.raises(ParseError):
        parse_formula("R(v0, v1)", SIG)  # arity
    with pytest.raises(ParseError):
        parse_formula("d(g(v0), v1)", SIG)  # unknown function


@pytest.mark.parametrize(
    "body, message",
    [
        ("Q(v0, v0)", "4:1: unknown relation symbol 'Q'"),
        ("R(v0, v1)", "4:1: relation R expects 1 arguments, got 2"),
    ],
)
def test_formula_file_body_checked_against_its_header(body, message):
    # no ambient signature: the header's [signature] block is the one checked
    with pytest.raises(ParseError) as err:
        parse_formula_file("[signature]\nrel R 1 linear(1)\n[formula]\n" + body)
    assert str(err.value) == message


def test_modulus_roundtrip():
    for text in MODULUS_ROUNDTRIP:
        m = parse_modulus(text)
        assert parse_modulus(print_modulus(m)) == m


@pytest.mark.parametrize("text", MODULUS_ROUNDTRIP)
def test_zero_modulus_is_a_zero_upper_row(text):
    m = parse_modulus(text)
    row = linear_upper_row(m)
    assert is_zero_modulus(m) == (row is not None and not any(row))
    # every form here has a row, so zero-ness is exact: a nonzero row shows
    # on some point of the half grid
    assert is_zero_modulus(m) == all(m(p) == 0 for p in RatGrid(m.arity, F(1, 2), F(1)).points())


def test_term_printing():
    t = parse_term("f(v0)")
    assert print_term(t) == "f(v0)"


def test_signature_rejects_collisions():
    with pytest.raises(ValueError):
        Signature(relations=(RelationSymbol("d", 1, Linear((F(1),))),))
    with pytest.raises(ValueError):
        Signature(constants=("v0",))
    with pytest.raises(ValueError):
        Signature(constants=("c", "c"))


def test_free_vars_and_basic():
    phi = parse_formula("sup v1 . latmin(d(v0, v1), d(v1, v2))")
    assert formula_free_vars(phi) == frozenset({0, 2})
    assert not is_basic(phi)
    assert is_basic(parse_formula("latmin(d(v0, v1), const(1))"))


def test_normalize_atomic_is_projection():
    phi = parse_formula("d(v0, v1)")
    atoms = basic_atomics(phi)
    assert atoms == (Atomic("d", (Var(0), Var(1))),)
    assert eval_connective(phi, dict(zip(atoms, (F(2, 7),)))) == F(2, 7)


def test_normalize_dedupes_atomics():
    phi = parse_formula("latmin(latmax(d(v0,v1), const(1/4)), d(v0,v1))")
    atoms = basic_atomics(phi)
    assert len(atoms) == 1
    assert eval_connective(phi, dict(zip(atoms, (F(1, 8),)))) == min(max(F(1, 8), F(1, 4)), F(1, 8))


def test_normalize_three_level_matches_eval_oracle():
    # three nested connective levels over two atomics; the connective at
    # the atomics' values must agree with direct evaluation on a grid
    phi = parse_formula(
        "pwl((0,0),(1/2,1),(1,1); latmin(latmax(d(v0,v1), R(v0)), const(3/4)))", SIG
    )
    atoms = basic_atomics(phi)
    assert len(atoms) == 2

    def direct(z0, z1):
        inner = min(max(z0, z1), F(3, 4))
        return min(F(1), 2 * inner)  # the pwl map

    for z0 in RatGrid(1, F(1, 4), F(1)).axis():
        for z1 in RatGrid(1, F(1, 4), F(1)).axis():
            assert eval_connective(phi, dict(zip(atoms, (z0, z1)))) == direct(z0, z1)


def test_normalize_rejects_quantifier():
    with pytest.raises(ValueError):
        basic_atomics(parse_formula("sup v0 . d(v0, v1)"))


def test_canonical_modulus_examples():
    assert canonical_modulus(parse_term("v0"), SIG, 2) == Linear((F(1), F(0)))
    assert canonical_modulus(parse_formula("d(v0, v1)"), SIG) == Linear((F(1), F(1)))
    sup = parse_formula("sup v1 . d(v0, v1)")
    assert canonical_modulus(sup, SIG, 2) == Linear((F(1), F(0)))
    assert canonical_modulus(parse_formula("d(v0, v0)"), SIG) == Zero(1)
    assert canonical_modulus(parse_formula("const(1/2)"), SIG, 1) == Zero(1)


def test_canonical_modulus_composition():
    # modulus of R(f(v0)) composes the symbol moduli
    phi = parse_formula("R(f(f(v0)))", SIG)
    assert canonical_modulus(phi, SIG) == Linear((F(1),))
    sig2 = Signature(
        relations=(RelationSymbol("S", 1, Linear((F(2),))),),
        functions=(FunctionSymbol("g", 1, Linear((F(3),))),),
    )
    phi2 = parse_formula("S(g(v0))", sig2)
    assert canonical_modulus(phi2, sig2) == Linear((F(6),))


def test_canonical_modulus_always_checks():
    grid = RatGrid(1, F(1, 4), F(1))
    for text in ["d(v0, v0)", "latmin(R(v0), const(1/2))", "pwl((0,0),(1/3,1),(1,1); R(v0))"]:
        m = canonical_modulus(parse_formula(text, SIG), SIG, 1)
        assert check_modulus(m, grid).passed


# Grammar fragments, so that random text also reaches the deeper branches.
_FORMULA_BITS = [
    "d(", "R(", "f(", "v0", "v1", "v99", "c", "x", "(", ")", ",", ";", ".", "/", "-",
    "0", "1", "2", "1/2", "0/0", "-1", "9" * 5000, "sup ", "inf ", "latmin(", "latmax(",
    "const(", "pwl(", "seg(", "linear(", "capped(", "zero", "zero(", "maxof(",
    "polymax(", "compose(", "(0,0)", "(1,1)", "(0)", "(1)", " ", "\n", "#",
    "[formula]", "[signature]", "rel R 1 linear(1)\n", "mscott/1\n", "fun f 1 linear(1)\n",
    "const c\n", "[points]", "junk\n",
]
_STRUCTURE_LINES = [
    "[signature]", "[points]",
    "[metric]", "[rel R]", "[fun f]", "[const c] p", "[const c]", "[]", "[", "[x",
    "rel R 1 linear(1)", "rel R x linear(1)", "rel R -1 zero", "rel R 1 maxof(",
    "rel R 2 linear(1)", "fun f 1 linear(1)", "fun f 0 zero(0)", "const c", "const",
    "p q", "p", "0", "1/2", "1/0", "x", "-1", "p 1/2", "p q", "p", "# note", "",
]


@given(st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(_FORMULA_BITS), max_size=30).map("".join),
))
@settings(max_examples=300, deadline=None)
def test_parse_formula_fuzz_raises_only_parse_errors(text):
    for signature in (None, SIG):
        for parse in (parse_formula, parse_formula_file):
            try:
                parse(text, signature)
            except ParseError:
                pass


@given(st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(_STRUCTURE_LINES), max_size=12).map(
        lambda lines: "\n".join(["mscott/1", *lines])
    ),
))
@settings(max_examples=300, deadline=None)
def test_parse_structure_fuzz_raises_only_format_errors(text):
    try:
        parse_structure(text)
    except StructureFormatError:
        pass
