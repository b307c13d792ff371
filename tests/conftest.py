import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from mscott.moduli import Linear
from mscott.rationals import lcm_denominator
from mscott.structures import PreStructure, build_metric, validate
from mscott.syntax import Signature, Symbol

DATA = Path(__file__).resolve().parent.parent / "data"


def codebook_numerators(engine, *extra: F) -> tuple[np.ndarray, int]:
    """Exact stage values as integers: returns ``(nums, L)`` with ``L`` the
    lcm of the denominators of ``engine.codebook`` and of ``extra``, and
    ``nums[code]`` the numerator over ``L`` of the value that ``code``
    stands for, so ``nums[table]`` is a code table's exact values over L."""
    L = lcm_denominator(engine.codebook + extra)
    # int64 with room for the few sums of values the tests form
    assert L < 2**60, f"common denominator {L} too large for int64 checks"
    return np.array([v.numerator * (L // v.denominator) for v in engine.codebook],
                    dtype=np.int64), L


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


def _structure(name, points, lower, **kw):
    s = PreStructure(
        signature=kw.pop("signature", Signature()),
        points=tuple(points),
        metric=build_metric(tuple(points), [[F(x) for x in row] for row in lower]),
        name=name,
        **kw,
    )
    assert validate(s) == []
    return s


@pytest.fixture(scope="session")
def two_point():
    return _structure("two_point", ("p", "q"), [["1/2"]])


@pytest.fixture(scope="session")
def three_point():
    return _structure("three_point", ("x", "y", "z"), [["1/5"], ["2/5", "3/5"]])


@pytest.fixture(scope="session")
def square():
    return _structure(
        "square",
        ("a", "b", "c", "e"),
        [["1/2"], ["1", "1/2"], ["1/2", "1", "1/2"]],
    )


def random_structure(rng: random.Random, n_points: int, with_relation: bool = False,
                     name: str = "rand") -> PreStructure:
    """A valid random structure: distances in [1/2, 1] with denominator 32
    satisfy the triangle inequality automatically; the optional unary
    relation is half the distance to the first point, which is
    1-Lipschitz by the triangle inequality."""
    points = tuple(f"a{i}" for i in range(n_points))
    lower = []
    for i in range(1, n_points):
        lower.append([F(rng.randint(16, 32), 32) for _ in range(i)])
    metric = build_metric(points, lower)
    signature = Signature()
    relations = {}
    if with_relation:
        signature = Signature(relations=(Symbol("R", 1, Linear((F(1),))),))
        relations = {"R": {(p,): metric[(p, points[0])] / 2 for p in points}}
    s = PreStructure(
        signature=signature,
        points=points,
        metric=metric,
        relations=relations,
        name=name,
    )
    assert validate(s) == []
    return s


@pytest.fixture(scope="session")
def corpus():
    """20 random valid structures of 2..6 points, a few carrying a relation."""
    rng = random.Random(0xC0FFEE)
    sizes = [2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 3, 4]
    out = []
    for i, n in enumerate(sizes):
        with_rel = i % 5 == 4
        out.append(random_structure(rng, n, with_relation=with_rel, name=f"rand{i}"))
    return out
