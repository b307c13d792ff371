"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed gives byte-identical inputs.  Structures are produced as
``.ms`` text, the format a user hands to ``mscott``, and are parsed and
validated by the program during set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

DYADIC_DENOM = 32
DECIMAL_DENOM = 10 ** 8


def fmt(q: Fraction) -> str:
    """``q`` as ``mscott`` writes it: ``p/q``, or a bare integer."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ms_text(name: str, points: list[str], lower: list[list[Fraction]],
             relation: dict[str, Fraction] | None) -> str:
    lines = ["mscott/1", f"# {name}", "[signature]"]
    if relation is not None:
        lines.append("rel R 1 linear(1)")
    lines += ["[points]", " ".join(points), "[metric]"]
    lines += [" ".join(fmt(v) for v in row) for row in lower]
    if relation is not None:
        lines.append("[rel R]")
        lines += [f"{p} {fmt(relation[p])}" for p in points]
    return "\n".join(lines) + "\n"


def dyadic_structure(rng: random.Random, n_points: int, with_relation: bool, name: str) -> str:
    """A valid metric structure drawn by the law of the acceptance corpus
    (``random_structure`` in ``tests/conftest.py``), optionally carrying a
    unary 1-Lipschitz relation ``R``.

    Distances are k/32 with k uniform in 16..32, so every triangle holds
    (a <= 1 <= b + c), and distances may repeat.  ``R`` is half the
    distance to the first point, which is 1-Lipschitz by the triangle
    inequality.
    """
    points = [f"p{i}" for i in range(n_points)]
    lower = [[Fraction(rng.randint(DYADIC_DENOM // 2, DYADIC_DENOM), DYADIC_DENOM)
              for _ in range(i)] for i in range(1, n_points)]
    relation = None
    if with_relation:
        to_first = [Fraction(0)] + [row[0] for row in lower]
        relation = {p: d / 2 for p, d in zip(points, to_first)}
    return _ms_text(name, points, lower, relation)


def decimal_structure(rng: random.Random, n_points: int, name: str) -> str:
    """A valid metric structure whose distances are 8-digit decimals.

    Distances are k/10^8 in [1/2, 1] with k coprime to 10, so every
    reduced denominator is exactly 10^8, and the triangle inequality holds
    as for ``dyadic_structure``.
    """
    points = [f"w{i}" for i in range(n_points)]
    lower = []
    for i in range(1, n_points):
        row = []
        for _ in range(i):
            k = rng.randint(DECIMAL_DENOM // 2, DECIMAL_DENOM)
            while gcd(k, 10) != 1:
                k = rng.randint(DECIMAL_DENOM // 2, DECIMAL_DENOM)
            row.append(Fraction(k, DECIMAL_DENOM))
        lower.append(row)
    return _ms_text(name, points, lower, None)


def thresholds(rng: random.Random, count: int, denominators: tuple[int, ...]) -> list[Fraction]:
    """``count`` distinct thresholds p/q in (0, 1) with q drawn from ``denominators``."""
    out: list[Fraction] = []
    while len(out) < count:
        q = rng.choice(denominators)
        t = Fraction(rng.randint(1, q - 1), q)
        if t not in out:
            out.append(t)
    return out


def read_ms_metric(text: str) -> tuple[list[str], dict[tuple[str, str], Fraction]]:
    """Points and the full metric of a signature-free ``.ms`` file.

    A reader of the benchmark's own, kept apart from ``mscott.structures``
    so that checks built on it do not share code with the program.
    """
    section = None
    points: list[str] = []
    rows: list[list[Fraction]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        if section == "points":
            points.extend(line.split())
        elif section == "metric":
            rows.append([Fraction(tok) for tok in line.split()])
    d = {(p, p): Fraction(0) for p in points}
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row):
            d[(points[i], points[j])] = d[(points[j], points[i])] = v
    return points, d
