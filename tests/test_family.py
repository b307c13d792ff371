from fractions import Fraction as F
from itertools import islice, product
from math import gcd

import pytest

from mscott.family import (
    _ENUM_CACHE,
    FamilyEnumerator,
    _stream,
    atomic_pool,
    enumerate_family,
    family_stack,
    respects_weak_modulus,
)
from mscott.moduli import Linear, SumWeakModulus
from mscott.structures import load_structure
from mscott.parser import parse_formula, print_formula
from mscott.segments import make_segment
from mscott.syntax import (
    Atomic,
    ConstF,
    EMPTY_SIGNATURE,
    MaxF,
    MinF,
    SegF,
    Signature,
    Symbol,
    formula_free_vars,
    is_basic,
    subformulas,
)
from mscott.evaluation import Evaluator

OMEGA = SumWeakModulus()


def atoms_of(phi):
    return {print_formula(f) for f in subformulas(phi) if isinstance(f, Atomic)}


def test_pool_drops_zero_modulus_atomics():
    pool = atomic_pool(EMPTY_SIGNATURE, 2)
    names = [print_formula(a) for a in pool]
    assert names == ["d(v0, v1)"]  # d(v0,v0), d(v1,v1) are pinned to 0; d(v1,v0) dedupes


def test_pool_prefix_property():
    p2 = [print_formula(a) for a in atomic_pool(EMPTY_SIGNATURE, 2)]
    p3 = [print_formula(a) for a in atomic_pool(EMPTY_SIGNATURE, 3)]
    assert p3[: len(p2)] == p2


def test_arity1_empty_signature_is_constants():
    fam = enumerate_family(EMPTY_SIGNATURE, OMEGA, 1, 12)
    assert all(isinstance(phi, ConstF) for phi in fam)
    values = [phi.value for phi in fam]
    assert values[:2] == [F(0), F(1)]
    assert len(set(values)) == len(values)  # no duplicates


def test_arity2_first_ten_all_over_the_metric_atomic():
    fam = enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 10)
    assert len(fam) == 10
    for phi in fam:
        assert is_basic(phi)
        assert atoms_of(phi) <= {"d(v0, v1)"}
    # the slope-one interpolant comes first
    assert print_formula(fam[0]) == "seg(linear(1); (0); (1); 0; 1; d(v0, v1))"


def test_enumeration_deterministic():
    a = [print_formula(f) for f in enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 40)]
    fresh = FamilyEnumerator(EMPTY_SIGNATURE, OMEGA, 2)
    b = [print_formula(f) for f in fresh.take(40)]
    assert a == b


def test_enumeration_extends_prefix():
    first = [print_formula(f) for f in enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 15)]
    longer = [print_formula(f) for f in enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 45)]
    assert longer[:15] == first


def _reference_height(atomics, delta, h):
    """Brute force: every (x, y, a, b) of data height h, in product order,
    that make_segment accepts with a < b, then the constants of height h."""
    k = delta.arity
    vals = sorted({F(p, q) for q in range(1, h + 1) for p in range(q + 1)})
    items = []
    for combo in product(vals, repeat=2 * k + 2):
        if max(c.denominator for c in combo) != h:
            continue
        try:
            seg = make_segment(delta, combo[:k], combo[k:2 * k], combo[2 * k], combo[2 * k + 1])
        except ValueError:
            continue
        if seg.a < seg.b:
            items.append(SegF(seg, atomics))
    return items + [ConstF(F(p, h)) for p in range(h + 1) if gcd(p, h) == 1]


def _stream_cases(data_dir):
    """(atomics, delta, top height) for the first tuple with an induced
    modulus of each length: lengths 1 and 2 through height 3, length 3
    through height 2, over the empty signature and rel_demo."""
    rel_demo = load_structure(data_dir / "rel_demo.ms").signature
    for sig, arity in ((EMPTY_SIGNATURE, 3), (rel_demo, 1)):
        enum = FamilyEnumerator(sig, OMEGA, arity)
        for length, top in ((1, 3), (2, 3), (3, 2)):
            atomics = next(t for t in product(enum.pool, repeat=length) if enum._induced(t))
            yield atomics, enum._induced(atomics), top


def test_stream_matches_brute_force_by_height(data_dir):
    # each height: the reference singles, then the meets and the joins
    # whose later operand came at the height below
    for atomics, delta, top in _stream_cases(data_dir):
        expected, lo, hi = [], 0, 0
        for h in range(1, top + 1):
            start = len(expected)
            expected += _reference_height(atomics, delta, h)
            if h < top:
                for op in (MinF, MaxF):
                    expected += [op((expected[i], expected[j]))
                                 for j in range(lo, hi) for i in range(j)]
            lo, hi = start, len(expected)
        assert list(islice(_stream(atomics, delta), len(expected))) == expected, atomics


def test_stream_items_are_distinct(data_dir):
    for atomics, delta, _ in _stream_cases(data_dir):
        items = list(islice(_stream(atomics, delta), 1000))
        assert len(set(items)) == len(items), atomics


def test_family_stack_extends_the_arity_below(corpus, data_dir):
    # stage 0 at arity n takes the members of family_stack(n - 1) from the
    # arity-(n - 1) table, which holds only if they read v0..v_{n-2}
    sigs = {s.signature for s in corpus} | {load_structure(data_dir / "rel_demo.ms").signature}
    for sig in sigs:
        for n in (2, 3, 4):
            lower, stack = family_stack(sig, OMEGA, n - 1, 50), family_stack(sig, OMEGA, n, 50)
            assert stack[: len(lower)] == lower, (sig, n)
            assert all(formula_free_vars(phi) <= set(range(n - 1)) for phi in lower), (sig, n)
        # each call returns its own list, so a caller's edit does not leak
        stack.clear()
        assert family_stack(sig, OMEGA, 4, 50)[: len(lower)] == lower


def test_family_stack_contains_lower_arities():
    stack = {print_formula(f) for f in family_stack(EMPTY_SIGNATURE, OMEGA, 3, 30)}
    for phi in enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 30):
        assert print_formula(phi) in stack


def test_family_cache_is_shared_across_weak_modulus_instances():
    # the cache keys on the weak modulus, so a fresh instance must hit the
    # entries another instance made rather than enumerate again
    assert SumWeakModulus() == SumWeakModulus()
    assert hash(SumWeakModulus()) == hash(SumWeakModulus())
    first = family_stack(EMPTY_SIGNATURE, SumWeakModulus(), 3, 20)
    keys = set(_ENUM_CACHE)
    assert family_stack(EMPTY_SIGNATURE, SumWeakModulus(), 3, 20) == first
    assert set(_ENUM_CACHE) == keys


@pytest.mark.parametrize("sig_file", [None, "rel_demo.ms", "square.ms"])
def test_members_are_identified_by_value_as_by_print(sig_file, data_dir):
    # the dedup in family_stack compares formulas by value; printing must
    # draw exactly the same distinctions
    sig = EMPTY_SIGNATURE if sig_file is None else load_structure(data_dir / sig_file).signature
    for arity in range(1, 5):
        fam = enumerate_family(sig, OMEGA, arity, 200)
        printed = [print_formula(phi) for phi in fam]
        assert len(set(fam)) == len(set(printed)) == len(set(zip(fam, printed)))
        by_print: dict[str, object] = {}
        for n in range(1, arity + 1):
            for phi in enumerate_family(sig, OMEGA, n, 200):
                by_print.setdefault(print_formula(phi), phi)
        assert family_stack(sig, OMEGA, arity, 200) == list(by_print.values())


def test_emitted_formulas_truly_respect_omega(corpus):
    # exact structural soundness: |phi(a) - phi(b)| <= sum of coordinate
    # distances, for every member and every tuple pair of sample structures
    fam = enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 40)
    for s in corpus[:4]:
        ev = Evaluator(s)
        for phi in fam:
            for ta in s.tuples(2):
                for tb in s.tuples(2):
                    gap = abs(ev.formula(phi, ta) - ev.formula(phi, tb))
                    bound = sum(s.d(a, b) for a, b in zip(ta, tb))
                    assert gap <= bound


def test_emitted_formulas_pass_respects_check():
    fam = enumerate_family(EMPTY_SIGNATURE, OMEGA, 2, 12)
    for phi in fam:
        report = respects_weak_modulus(phi, EMPTY_SIGNATURE, OMEGA, step=F(1, 8))
        assert report.respects, print_formula(phi)


def test_family_with_relation_signature():
    sig = Signature(relations=(Symbol("R", 1, Linear((F(1),))),))
    fam = enumerate_family(sig, OMEGA, 1, 20)
    used = set().union(*(atoms_of(phi) for phi in fam))
    assert "R(v0)" in used
    for phi in fam:
        assert formula_free_vars(phi) <= {0}


def test_family_with_binary_relation():
    sig = Signature(relations=(Symbol("E", 2, Linear((F(1), F(1)))),))
    pool = atomic_pool(sig, 2)
    names = {print_formula(a) for a in pool}
    assert {"d(v0, v1)", "E(v0, v1)", "E(v1, v0)", "E(v0, v0)", "E(v1, v1)"} <= names
    fam = enumerate_family(sig, OMEGA, 2, 30)
    used = set().union(*(atoms_of(phi) for phi in fam))
    assert any(name.startswith("E(") for name in used)


def test_respects_check_identity_and_violations():
    rep = respects_weak_modulus(parse_formula("d(v0, v1)"), EMPTY_SIGNATURE, OMEGA, step=F(1, 8))
    assert rep.respects
    bad = respects_weak_modulus(
        parse_formula("pwl((0,0),(1/3,1),(1,1); d(v0, v1))"),
        EMPTY_SIGNATURE,
        OMEGA,
        step=F(1, 8),
    )
    assert not bad.respects
    # the first pair of the scan, in the steep region: |3/8 - 0| - 1/8
    assert bad.witness == ((F(0),), (F(1, 8),))
    assert bad.gap == F(1, 4)


def test_respects_check_constants_and_reduction():
    assert respects_weak_modulus(parse_formula("const(1/3)"), EMPTY_SIGNATURE, OMEGA).respects
    rep = respects_weak_modulus(
        parse_formula("latmax(const(1/4), pwl((0,0),(1,1); d(v0, v0)))"),
        EMPTY_SIGNATURE,
        OMEGA,
        step=F(1, 8),
    )
    assert rep.respects and rep.reduced_atomics == 1


def test_respects_check_capped_relation_modulus():
    # a capped 2-Lipschitz relation outruns the sum weak modulus on its own,
    # but halving it brings the composite back inside
    from mscott.moduli import CappedLinear

    sig = Signature(relations=(Symbol("R", 1, CappedLinear(F(1, 2), (F(2),))),))
    steep = respects_weak_modulus(parse_formula("R(v0)", sig), sig, OMEGA, step=F(1, 8))
    assert not steep.respects
    assert steep.witness == ((F(0),), (F(1, 8),)) and steep.gap == F(1, 16)
    halved = respects_weak_modulus(
        parse_formula("pwl((0,0),(1,1/2); R(v0))", sig), sig, OMEGA, step=F(1, 8)
    )
    assert halved.respects


def test_respects_check_rejects_structure_dependent_constant():
    sig = Signature(constants=("c", "e"))
    with pytest.raises(ValueError):
        respects_weak_modulus(parse_formula("d(c, e)", sig), sig, OMEGA)


def test_respects_check_rejects_quantifiers():
    with pytest.raises(ValueError):
        respects_weak_modulus(parse_formula("sup v0 . d(v0, v1)"), EMPTY_SIGNATURE, OMEGA)


def test_respects_check_mixed_pinned_and_kept_atomics():
    # the pinned zero-modulus atomic precedes the live one, exercising the
    # projection reindexing in the constant-substitution reduction
    phi = parse_formula(
        "latmin(pwl((0,0),(1,1); d(v0, v0)), d(v0, v1))"
    )
    rep = respects_weak_modulus(phi, EMPTY_SIGNATURE, OMEGA, step=F(1, 8))
    assert rep.respects and rep.reduced_atomics == 1
    # min(0, t) is constantly 0, which respects anything; flipping to latmax
    # gives max(0, t) = t, the identity, which also respects
    phi2 = parse_formula(
        "latmax(pwl((0,0),(1,1); d(v0, v0)), d(v0, v1))"
    )
    rep2 = respects_weak_modulus(phi2, EMPTY_SIGNATURE, OMEGA, step=F(1, 8))
    assert rep2.respects and rep2.reduced_atomics == 1


def test_respects_check_two_dimensional():
    # min of two distances is fine; a slope-2 interpolant over atomics that
    # share a variable exceeds the induced (max-shaped) modulus
    good = parse_formula("latmin(d(v0, v1), d(v1, v2))")
    assert respects_weak_modulus(good, EMPTY_SIGNATURE, OMEGA, step=F(1, 4)).respects
    shared_sum = parse_formula(
        "seg(linear(1,1); (0,0); (1,1); 0; 1; d(v0, v1), d(v1, v2))"
    )
    assert respects_weak_modulus(shared_sum, EMPTY_SIGNATURE, OMEGA, step=F(1, 4)).respects
    steep = parse_formula(
        "seg(linear(2,2); (0,0); (1/4,1/4); 0; 1; d(v0, v1), d(v1, v2))"
    )
    rep = respects_weak_modulus(steep, EMPTY_SIGNATURE, OMEGA, step=F(1, 4))
    assert not rep.respects
    assert rep.witness == ((F(0), F(0)), (F(0), F(1, 4))) and rep.gap == F(1, 4)
