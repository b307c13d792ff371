"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance here is exact rational equality or inequality.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from mscott.family import lattice_approximate
from mscott.moduli import Linear, SumWeakModulus, check_modulus, largest_modulus_below, pi_fold
from mscott.parser import parse_formula
from mscott.rationals import RatGrid, vec_sub
from mscott.scott import BFEngine, EngineConfig
from mscott.segments import make_segment, segment_norm_bound
from mscott.structures import automorphisms, load_structure

from conftest import codebook_numerators

PKG_ROOT = Path(__file__).resolve().parent.parent
DATA = PKG_ROOT / "data"
OMEGA = SumWeakModulus()

_ENGINES: dict[str, BFEngine] = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def engines(corpus):
    for s in corpus:
        if s.name not in _ENGINES:
            _ENGINES[s.name] = BFEngine(
                s, config=EngineConfig(family_size=200, max_arity=3, table_cap=4)
            )
    return [_ENGINES[s.name] for s in corpus]


def _tables_up_to_arity3(eng):
    for n in (1, 2, 3):
        for stage in range(eng.window(n) + 1):
            yield n, stage, eng.table(n, stage)


def test_criterion_1_pseudo_distance(engines):
    structures = pairs = 0
    for eng in engines:
        structures += 1
        nums, _ = codebook_numerators(eng)
        for n, stage, codes in _tables_up_to_arity3(eng):
            tab = nums[codes]
            t = tab.shape[0]
            pairs += t * t
            assert (np.diagonal(tab) == 0).all(), "reflexivity"
            assert (tab == tab.T).all(), "symmetry"
            for j in range(t):
                assert (tab <= tab[:, j : j + 1] + tab[j : j + 1, :]).all(), "triangle"
    _report(1, True, f"pseudo-distance axioms exact on {structures} structures, "
                     f"{pairs} (pair,stage) cells")


def _omega_gap_matrix(eng, n, denom):
    m = len(eng.s.points)
    D = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(eng.s.points):
        for j, q in enumerate(eng.s.points):
            D[i, j] = int(eng.s.d(p, q) * denom)
    gap = D
    for _ in range(n - 1):
        t = gap.shape[0]
        gap = (gap[:, None, :, None] + D[None, :, None, :]).reshape(t * m, t * m)
    return gap


def test_criterion_2_omega_respect(engines):
    checked = 0
    for eng in engines:
        nums, denom = codebook_numerators(eng, *eng.s.metric.values())
        for n in (1, 2, 3):
            gap = _omega_gap_matrix(eng, n, denom)
            for stage in range(eng.window(n) + 1):
                tab = nums[eng.table(n, stage)]
                t = tab.shape[0]
                for ap in range(t):
                    # max_b (r(a,b) - r(ap,b)) <= omega-gap(a, ap) for all a
                    diff = (tab - tab[ap : ap + 1, :]).max(axis=1)
                    assert (diff <= gap[:, ap]).all(), (eng.s.name, n, stage)
                checked += 1
    _report(2, True, f"weak-modulus respect exact on {checked} stage tables")


def test_criterion_3_stage_monotone(engines):
    checked = 0
    for eng in engines:
        for n in range(1, eng.cap + 1):
            for stage in range(eng.window(n)):
                assert (eng.table(n, stage + 1) >= eng.table(n, stage)).all()
                checked += 1
    _report(3, True, f"stage monotonicity exact across {checked} consecutive-stage pairs")


def test_criterion_4_oracle_equivalence(engines):
    qs = [F(1, 10), F(1, 4), F(1, 2), F(3, 4)]
    total = 0
    for eng in engines:
        for q in qs:
            report = eng.oracle_equivalence(q)
            assert report.ok, (eng.s.name, q, report.mismatches[:3])
            total += report.pairs_checked
    _report(4, True, f"fixpoint membership and entry stages match the threshold "
                     f"predicate on {total} pair checks (4 thresholds)")


def test_criterion_5_r0_closed_form(engines, three_point):
    eng3 = BFEngine(three_point, config=EngineConfig(family_size=200, table_cap=2))
    v, meta = eng3.r0_pair(("x", "y"), ("x", "z"))
    assert v == F(1, 5) and meta["metric_oracle"] == "1/5"
    pairs = 0
    for eng in engines:
        sig = eng.s.signature
        if sig.relations or sig.functions or sig.constants:
            continue
        tab = eng.table(2, 0)
        tuples = eng.tuples(2)
        for i, a in enumerate(tuples):
            for j, b in enumerate(tuples):
                oracle = max(
                    abs(eng.s.d(a[x], a[y]) - eng.s.d(b[x], b[y]))
                    for x in range(2)
                    for y in range(2)
                )
                got = eng.codebook[tab[i, j]]
                assert got == oracle, (eng.s.name, a, b, got, oracle)
                pairs += 1
    _report(5, True, f"enumerated r0 equals the pairwise metric form exactly on "
                     f"{pairs} arity-2 pairs; three-point value 1/5 reproduced")


def test_criterion_6_lattice_density():
    rng = random.Random(2024)
    grid = RatGrid(1, F(1, 8), F(1))
    axis = grid.axis()
    atomics = (parse_formula("d(v0, v1)"),)
    successes = 0
    for trial in range(100):
        coeff = F(rng.randint(1, 16), 8)
        delta = Linear((coeff,))
        values = {}
        prev = []
        for x in axis:
            lo = max([F(0)] + [v - delta(((x - y),)) for y, v in prev])
            hi = min([F(1)] + [v + delta(((x - y),)) for y, v in prev])
            assert lo <= hi
            pick = lo + (hi - lo) * F(rng.randint(0, 8), 8)
            values[(x,)] = pick
            prev.append((x, pick))
        res = lattice_approximate(values, delta, F(1, 8), atomics)
        assert res.succeeded and res.deviation < F(1, 8), (trial, res.deviation)
        successes += 1
    _report(6, True, f"{successes}/100 random respecting targets approximated "
                     f"below 1/8 grid deviation")


def test_criterion_7_perturbation_bound():
    rng = random.Random(77)
    grid = RatGrid(1, F(1, 8), F(1))
    delta = Linear((F(1),))

    def rand_segment():
        while True:
            x = (F(rng.randint(0, 16), 16),)
            y = (F(rng.randint(0, 16), 16),)
            span = delta(pi_fold(vec_sub(y, x)))
            if span == 0:
                continue
            a = F(rng.randint(0, 16), 16)
            top = min(F(1), a + span)
            b = a + (top - a) * F(rng.randint(0, 8), 8)
            return make_segment(delta, x, y, a, b)

    for _ in range(1000):
        s1, s2 = rand_segment(), rand_segment()
        bound = segment_norm_bound(s1, s2, grid)
        measured = max(abs(s1((z,)) - s2((z,))) for z in grid.axis())
        assert measured <= bound
    _report(7, True, "measured sup-difference within the perturbation bound "
                     "on 1000 random segment pairs")


def test_criterion_8_envelope_properties():
    g8 = RatGrid(1, F(1, 8), F(1))
    g16 = RatGrid(1, F(1, 16), F(1))
    for fn in (lambda p: p[0], lambda p: min(F(1), 2 * p[0])):
        env = largest_modulus_below(fn, 8, grid=g8)
        for x in g8.axis():
            assert env((x,)) == fn((x,))
    sq_axis = g8.axis()
    sqrt_env = largest_modulus_below({(v * v,): v for v in sq_axis}, 8)
    for v in sq_axis:
        assert sqrt_env((v * v,)) == v
    env8 = largest_modulus_below(lambda p: p[0] * p[0], 8, grid=g8)
    env16 = largest_modulus_below(lambda p: p[0] * p[0], 16, grid=g16)
    assert env8((F(1),)) == F(1, 8)
    assert env16((F(1),)) == F(1, 16)
    for x in g8.axis():
        assert env8((x,)) <= x * x
    assert check_modulus(env8, g8).passed
    assert check_modulus(env16, g16).passed
    _report(8, True, "envelope below target, modulus check passed, fixed points "
                     "unchanged, square envelope 1/8 -> 1/16 under refinement")


def test_criterion_9_isometry_invariance():
    for name in ("two_point", "square"):
        s = load_structure(DATA / f"{name}.ms")
        eng = BFEngine(s, config=EngineConfig(family_size=120, max_arity=2, table_cap=3))
        autos = [f for f in automorphisms(s) if any(f[p] != p for p in s.points)]
        assert autos, name
        for f in autos:
            for n in (1, 2):
                for t in eng.tuples(n):
                    image = tuple(f[p] for p in t)
                    for stage in range(eng.window(n) + 1):
                        assert eng.value(stage, t, image) == 0, (name, t, image)
    _report(9, True, "all stages vanish on automorphism-related pairs "
                     "(two-point swap, square symmetries)")


_CLI_CASES = [
    ["validate", str(DATA / "three_point.ms")],
    ["eval", str(DATA / "three_point.ms"), "sup v1 . d(v0, v1)", "x"],
    ["dense-family", "--arity", "2", "--count", "8"],
    ["modulus-floor", "--fn", "square", "--grid", "1/8"],
    ["r0", str(DATA / "three_point.ms"), "x,y", "x,z"],
    ["ralpha", str(DATA / "three_point.ms"), "--stage", "1", "--arity", "1"],
    ["scott-rank", str(DATA / "two_point.ms"), "--max-arity", "2"],
    ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10",
     "--max-arity", "2", "--table-cap", "3", "--json"],
]


# str.__hash__ is salted per process; fixed salts, the extreme ones included,
# make a run that depends on set or hash order fail on every machine alike
_HASH_SEEDS = ("0", "1", "4294967295")


def _run_cli(args, hash_seed: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", *args],
        capture_output=True,
        cwd=PKG_ROOT,
        env=os.environ | {"PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, (args, hash_seed, proc.stderr)
    return proc.stdout


def test_criterion_10_cli_determinism():
    for args in _CLI_CASES:
        runs = [_run_cli(args, seed) for seed in _HASH_SEEDS]
        assert runs[0] == runs[1] == runs[2], f"output depends on PYTHONHASHSEED: {args}"
    _report(10, True, f"byte-identical output for {len(_CLI_CASES)} commands x "
                      f"PYTHONHASHSEED {', '.join(_HASH_SEEDS)}")
