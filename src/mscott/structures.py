"""Finite pre-structures with exact rational data, and the `.ms` file format.

A pre-structure is a finite point set with a rational metric table in
[0,1] plus total interpretation tables for every signature symbol.
Validation checks every axiom exhaustively and exactly: metric axioms,
value ranges, that each table holds exactly the tuples of its symbol's
arity over the points, and that each relation and function respects
its declared modulus on all tuple pairs.

File format (versioned header ``mscott/1``, ``#`` comments)::

    mscott/1 [pseudometric]
    [signature]
    rel R 1 linear(1)
    fun f 1 linear(1)
    const c
    [points]
    x y z
    [metric]
    1/5
    2/5 3/5
    [rel R]
    x 1/2
    [fun f]
    x y
    [const c] x

The metric block lists lower-triangular rows: row i gives d(p_i, p_j)
for j < i.  The ``pseudometric`` flag permits d(x,y) = 0 for x != y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, permutations, product
from pathlib import Path
from typing import Iterator

from .parser import ParseError, parse_declarations, print_modulus
from .rationals import ZERO, format_rational, parse_rational
from .syntax import Signature, Symbol


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    witness: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class StructureFormatError(ValueError):
    """Malformed structure file."""


class StructureInvalid(ValueError):
    """A structure that parses but breaks its axioms."""

    def __init__(self, violations: list[Violation]):
        super().__init__(
            "; ".join(str(v) for v in violations[:3])
            + ("" if len(violations) <= 3 else f" (+{len(violations) - 3} more)")
        )
        self.violations = violations


@dataclass(frozen=True)
class PreStructure:
    signature: Signature
    points: tuple[str, ...]
    metric: dict[tuple[str, str], Fraction]
    relations: dict[str, dict[tuple[str, ...], Fraction]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)
    pseudometric: bool = False
    name: str = ""

    def d(self, p: str, q: str) -> Fraction:
        return self.metric[(p, q)]

    def tuples(self, n: int) -> list[tuple[str, ...]]:
        """All n-tuples of points in lexicographic point-index order."""
        return list(product(self.points, repeat=n))


def build_metric(points: tuple[str, ...], lower: list[list[Fraction]]) -> dict:
    """Full symmetric table from lower-triangular rows."""
    m: dict[tuple[str, str], Fraction] = {}
    for p in points:
        m[(p, p)] = ZERO
    for i, row in enumerate(lower, start=1):
        for j, v in enumerate(row):
            m[(points[i], points[j])] = v
            m[(points[j], points[i])] = v
    return m


def validate(s: PreStructure, max_violations: int = 50) -> list[Violation]:
    """Exhaustive exact check of every structure invariant; violations are
    report entries, never exceptions.  At most ``max_violations`` are
    returned, the first ones found."""
    return list(islice(_violations(s), max_violations))


def _violations(s: PreStructure) -> Iterator[Violation]:
    pts = s.points
    if len(set(pts)) != len(pts):
        yield Violation("points", "duplicate point names")
        return

    # metric table: totality, range, axioms
    broken = False
    for p, q in product(pts, repeat=2):
        v = s.metric.get((p, q))
        if v is None:
            broken = True
            yield Violation("metric-total", f"missing d({p},{q})", (p, q))
        elif not 0 <= v <= 1:
            broken = True
            yield Violation("metric-range", f"d({p},{q}) = {format_rational(v)} outside [0,1]",
                            (p, q))
    if broken:
        return
    for p in pts:
        if s.metric[(p, p)] != 0:
            yield Violation("metric-reflexive", f"d({p},{p}) != 0", (p,))
    for p, q in product(pts, repeat=2):
        if s.metric[(p, q)] != s.metric[(q, p)]:
            yield Violation(
                "metric-symmetric",
                f"d({p},{q}) = {format_rational(s.metric[(p, q)])} != "
                f"{format_rational(s.metric[(q, p)])} = d({q},{p})",
                (p, q),
            )
        if p != q and s.metric[(p, q)] == 0 and not s.pseudometric:
            yield Violation("metric-separating", f"d({p},{q}) = 0 for distinct points", (p, q))
    for p, q, r in product(pts, repeat=3):
        if s.metric[(p, r)] > s.metric[(p, q)] + s.metric[(q, r)]:
            yield Violation(
                "metric-triangle",
                f"d({p},{r}) = {format_rational(s.metric[(p, r)])} > "
                f"{format_rational(s.metric[(p, q)])} + {format_rational(s.metric[(q, r)])}"
                f" = d({p},{q}) + d({q},{r})",
                (p, q, r),
            )

    # relations: totality, domain, range, modulus respect
    for rel in s.signature.relations:
        table = s.relations.get(rel.name)
        if table is None:
            yield Violation("relation-total", f"no table for relation {rel.name}")
            continue
        ok = True
        tuples = list(product(pts, repeat=rel.arity))
        yield from _outside_domain("relation", rel.name, rel.arity, table, tuples)
        for t in tuples:
            v = table.get(t)
            if v is None:
                ok = False
                yield Violation("relation-total", f"{rel.name}{t} missing")
            elif not 0 <= v <= 1:
                ok = False
                yield Violation("relation-range",
                                f"{rel.name}{t} = {format_rational(v)} outside [0,1]")
        if not ok:
            continue
        for ta, tb in product(tuples, repeat=2):
            dists = tuple(s.metric[(x, y)] for x, y in zip(ta, tb))
            bound = rel.modulus(dists)
            gap = abs(table[ta] - table[tb])
            if gap > bound:
                yield Violation(
                    "relation-modulus",
                    f"|{rel.name}{ta} - {rel.name}{tb}| = {format_rational(gap)} > "
                    f"{format_rational(bound)} = modulus bound",
                    ta + tb,
                )

    # functions: totality, domain, closure, modulus respect
    for fn in s.signature.functions:
        table = s.functions.get(fn.name)
        if table is None:
            yield Violation("function-total", f"no table for function {fn.name}")
            continue
        tuples = list(product(pts, repeat=fn.arity))
        yield from _outside_domain("function", fn.name, fn.arity, table, tuples)
        ok = True
        for t in tuples:
            v = table.get(t)
            if v is None:
                ok = False
                yield Violation("function-total", f"{fn.name}{t} missing")
            elif v not in pts:
                ok = False
                yield Violation("function-range", f"{fn.name}{t} = {v!r} is not a point")
        if not ok:
            continue
        for ta, tb in product(tuples, repeat=2):
            dists = tuple(s.metric[(x, y)] for x, y in zip(ta, tb))
            bound = fn.modulus(dists)
            gap = s.metric[(table[ta], table[tb])]
            if gap > bound:
                yield Violation(
                    "function-modulus",
                    f"d({fn.name}{ta}, {fn.name}{tb}) = {format_rational(gap)} > "
                    f"{format_rational(bound)} = modulus bound",
                    ta + tb,
                )

    for c in s.signature.constants:
        v = s.constants.get(c)
        if v is None:
            yield Violation("constant-total", f"constant {c} unassigned")
        elif v not in pts:
            yield Violation("constant-range", f"constant {c} = {v!r} is not a point")


def _outside_domain(kind: str, name: str, arity: int, table: dict,
                    tuples: list[tuple[str, ...]]) -> Iterator[Violation]:
    """A violation per table row that is not one of ``tuples``: a wrong
    length, or a name that is not a point."""
    domain = set(tuples)
    for t in table:
        if t not in domain:
            yield Violation(f"{kind}-domain",
                            f"{name}{t} is not a {arity}-tuple of points", t)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def parse_structure(text: str, name: str = "") -> PreStructure:
    """Parse without validating; see ``load_structure`` for the checked path."""
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            lines.append((no, stripped.strip()))
    if not lines:
        raise StructureFormatError("empty file")
    no0, header = lines[0]
    parts = header.split()
    if not parts or parts[0] != "mscott/1":
        raise StructureFormatError(f"line {no0}: expected header 'mscott/1'")
    pseudometric = False
    for flag in parts[1:]:
        if flag == "pseudometric":
            pseudometric = True
        else:
            raise StructureFormatError(f"line {no0}: unknown flag {flag!r}")

    sections: list[tuple[int, str, str, list[tuple[int, str]]]] = []
    i = 1
    while i < len(lines):
        no, line = lines[i]
        if not line.startswith("["):
            raise StructureFormatError(f"line {no}: expected a [section] header")
        close = line.index("]") if "]" in line else -1
        if close < 0:
            raise StructureFormatError(f"line {no}: unterminated section header")
        head = line[1:close].strip()
        inline = line[close + 1 :].strip()
        body: list[tuple[int, str]] = []
        i += 1
        while i < len(lines) and not lines[i][1].startswith("["):
            body.append(lines[i])
            i += 1
        sections.append((no, head, inline, body))

    relations: tuple[Symbol, ...] = ()
    functions: tuple[Symbol, ...] = ()
    constants: tuple[str, ...] = ()
    points: tuple[str, ...] = ()
    lower: list[list[Fraction]] = []
    rel_tables: dict[str, dict[tuple[str, ...], Fraction]] = {}
    fun_tables: dict[str, dict[tuple[str, ...], str]] = {}
    const_map: dict[str, str] = {}
    seen_heads: set[str] = set()

    for no, head, inline, body in sections:
        words = head.split()
        if not words:
            raise StructureFormatError(f"line {no}: empty section header")
        key = head
        if words[0] in ("rel", "fun", "const") and len(words) == 2:
            key = f"{words[0]} {words[1]}"
        if key in seen_heads:
            raise StructureFormatError(f"line {no}: duplicate section [{head}]")
        seen_heads.add(key)

        if head == "signature":
            try:
                relations, functions, constants = parse_declarations(body)
            except ParseError as exc:
                raise StructureFormatError(f"line {exc.line}: {exc.message}") from exc
        elif head == "points":
            names: list[str] = []
            for _, line in body:
                names.extend(line.split())
            points = tuple(names)
        elif head == "metric":
            for bno, line in body:
                try:
                    lower.append([parse_rational(tok) for tok in line.split()])
                except ValueError as exc:
                    raise StructureFormatError(f"line {bno}: {exc}") from exc
        elif words[0] == "rel" and len(words) == 2:
            table: dict[tuple[str, ...], Fraction] = {}
            for bno, line in body:
                toks = line.split()
                if len(toks) < 2:
                    raise StructureFormatError(f"line {bno}: expected 'POINTS... VALUE'")
                try:
                    table[tuple(toks[:-1])] = parse_rational(toks[-1])
                except ValueError as exc:
                    raise StructureFormatError(f"line {bno}: {exc}") from exc
            rel_tables[words[1]] = table
        elif words[0] == "fun" and len(words) == 2:
            ftable: dict[tuple[str, ...], str] = {}
            for bno, line in body:
                toks = line.split()
                if len(toks) < 2:
                    raise StructureFormatError(f"line {bno}: expected 'POINTS... POINT'")
                ftable[tuple(toks[:-1])] = toks[-1]
            fun_tables[words[1]] = ftable
        elif words[0] == "const" and len(words) == 2:
            if not inline or body:
                raise StructureFormatError(
                    f"line {no}: constant assignment goes on the header line: [const {words[1]}] POINT"
                )
            const_map[words[1]] = inline
        else:
            raise StructureFormatError(f"line {no}: unknown section [{head}]")

    if not points:
        raise StructureFormatError("missing or empty [points] section")
    if len(lower) != max(len(points) - 1, 0):
        raise StructureFormatError(
            f"[metric] needs {len(points) - 1} lower-triangular rows, got {len(lower)}"
        )
    for i, row in enumerate(lower, start=1):
        if len(row) != i:
            raise StructureFormatError(f"[metric] row {i} needs {i} entries, got {len(row)}")

    try:
        sig = Signature(relations, functions, constants)
    except ValueError as exc:
        raise StructureFormatError(str(exc)) from exc

    for rname in rel_tables:
        if rname not in {r.name for r in relations}:
            raise StructureFormatError(f"[rel {rname}] has no signature entry")
    for fname in fun_tables:
        if fname not in {f.name for f in functions}:
            raise StructureFormatError(f"[fun {fname}] has no signature entry")
    for cname in const_map:
        if cname not in constants:
            raise StructureFormatError(f"[const {cname}] has no signature entry")

    return PreStructure(
        signature=sig,
        points=points,
        metric=build_metric(points, lower),
        relations=rel_tables,
        functions=fun_tables,
        constants=const_map,
        pseudometric=pseudometric,
        name=name,
    )


def load_structure(source: str | Path) -> PreStructure:
    """Parse and validate; raises StructureFormatError / StructureInvalid."""
    path = Path(source)
    return loads_structure(path.read_text(encoding="utf-8"), name=path.stem)


def loads_structure(text: str, name: str = "") -> PreStructure:
    s = parse_structure(text, name=name)
    violations = validate(s)
    if violations:
        raise StructureInvalid(violations)
    return s


def automorphisms(s: PreStructure) -> list[dict[str, str]]:
    """All point bijections preserving the metric and every symbol table,
    verified exhaustively (exact equality).  Brute force over point
    permutations; intended for the small structures this package targets."""
    maps = []
    pts = s.points
    for perm in permutations(pts):
        f = dict(zip(pts, perm))
        if any(s.metric[(p, q)] != s.metric[(f[p], f[q])] for p in pts for q in pts):
            continue
        ok = True
        for rel in s.signature.relations:
            table = s.relations[rel.name]
            for t, v in table.items():
                if table[tuple(f[p] for p in t)] != v:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for fn in s.signature.functions:
                table = s.functions[fn.name]
                for t, v in table.items():
                    if table[tuple(f[p] for p in t)] != f[v]:
                        ok = False
                        break
                if not ok:
                    break
        if ok and all(s.constants[c] == f[s.constants[c]] for c in s.constants):
            maps.append(f)
    return maps


def dump_structure(s: PreStructure) -> str:
    """Deterministic `.ms` serialization (inverse of parse_structure)."""
    out = ["mscott/1" + (" pseudometric" if s.pseudometric else "")]
    out.append("[signature]")
    for r in s.signature.relations:
        out.append(f"rel {r.name} {r.arity} {print_modulus(r.modulus)}")
    for f in s.signature.functions:
        out.append(f"fun {f.name} {f.arity} {print_modulus(f.modulus)}")
    for c in s.signature.constants:
        out.append(f"const {c}")
    out.append("[points]")
    out.append(" ".join(s.points))
    out.append("[metric]")
    for i in range(1, len(s.points)):
        row = [format_rational(s.metric[(s.points[i], s.points[j])]) for j in range(i)]
        out.append(" ".join(row))
    for r in s.signature.relations:
        out.append(f"[rel {r.name}]")
        for t in sorted(s.relations.get(r.name, {})):
            out.append(" ".join(t) + " " + format_rational(s.relations[r.name][t]))
    for f in s.signature.functions:
        out.append(f"[fun {f.name}]")
        for t in sorted(s.functions.get(f.name, {})):
            out.append(" ".join(t) + " " + s.functions[f.name][t])
    for c in s.signature.constants:
        if c in s.constants:
            out.append(f"[const {c}] {s.constants[c]}")
    return "\n".join(out) + "\n"
