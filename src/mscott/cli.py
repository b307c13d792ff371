"""Command-line front end.

Deterministic output: identical inputs and flags produce byte-identical
output (exact arithmetic, fixed enumeration order, sorted JSON keys).

Exit codes: 0 success, 1 domain rejection (validation or side-condition
failure; a command raises ``ValueError`` and ``main`` prints it as one
``error:`` line), 2 usage error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from .evaluation import Evaluator
from .family import enumerate_family
from .moduli import axis_size, largest_modulus_below, weak_modulus
from .parser import ParseError, parse_formula, parse_formula_file, print_formula
from .rationals import ONE, RatGrid, format_rational, parse_rational
from .scott import BFEngine, EngineConfig
from .structures import (
    PreStructure,
    StructureFormatError,
    StructureInvalid,
    loads_structure,
    validate as validate_structure,
    parse_structure,
)
from .syntax import EMPTY_SIGNATURE


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


def _read(path: str, what: str = "file") -> str:
    """The UTF-8 text of an input file; a file that cannot be read is a
    refusal that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load(path: str, check: bool = True) -> PreStructure:
    """The structure file at PATH, validated unless ``check`` is false."""
    text, name = _read(path), Path(path).stem
    try:
        return loads_structure(text, name=name) if check else parse_structure(text, name=name)
    except StructureFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except StructureInvalid as exc:
        raise ValueError(f"{path}: invalid structure: {exc}") from None


def _tuple_arg(text: str, s: PreStructure) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for p in parts:
        if p not in s.points:
            raise ValueError(f"point {p!r} not in the structure (points: {' '.join(s.points)})")
    return parts


def _rat_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def _decimal(q: Fraction) -> str:
    return f"{float(q):.6g}"


class _Main(click.Group):
    """The command group.  Commands refuse bad input by raising
    ``ValueError``; it is reported here as one ``error:`` line, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Exact continuous-logic toolkit for finite metric structures."""


@main.command("validate")
@click.argument("structure", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cmd_validate(structure: str, as_json: bool) -> None:
    """Check every structure axiom exhaustively; exit 1 with witnesses on failure."""
    parsed = _load(structure, check=False)
    violations = validate_structure(parsed)
    payload = {
        "command": "validate",
        "structure": parsed.name,
        "points": len(parsed.points),
        "violations": [
            {"kind": v.kind, "message": v.message, "witness": list(v.witness)}
            for v in violations
        ],
    }
    if violations:
        _emit(payload, as_json, [f"invalid: {v}" for v in violations])
        sys.exit(1)
    _emit(payload, as_json, [f"valid: {parsed.name} ({len(parsed.points)} points)"])


@main.command("eval")
@click.argument("structure", type=click.Path())
@click.argument("formula")
@click.argument("point_tuple")
@click.option("--json", "as_json", is_flag=True)
@click.option("--decimal", is_flag=True, help="append an approximate decimal rendering")
def cmd_eval(structure: str, formula: str, point_tuple: str, as_json: bool, decimal: bool) -> None:
    """Evaluate FORMULA (inline or @file) at POINT_TUPLE, e.g. "x,y"."""
    s = _load(structure)
    from_file = formula.startswith("@")
    if from_file:
        formula = _read(formula[1:], "formula file")
    try:
        phi = (parse_formula_file if from_file else parse_formula)(formula, s.signature)
    except ParseError as exc:
        raise ValueError(f"formula: {exc}") from None
    env = _tuple_arg(point_tuple, s)
    value = Evaluator(s).formula(phi, env)
    text = f"{format_rational(value)}"
    if decimal:
        text += f"  (~ {_decimal(value)})"
    payload = {
        "command": "eval",
        "structure": s.name,
        "formula": print_formula(phi),
        "tuple": list(env),
        "value": format_rational(value),
    }
    _emit(payload, as_json, [text])


@main.command("dense-family")
@click.option("--arity", required=True, type=click.IntRange(min=1))
@click.option("--count", required=True, type=click.IntRange(min=0))
@click.option("--omega", "omega_name", default="sum", show_default=True)
@click.option("--signature", "sig_file", type=click.Path(), default=None,
              help="take the signature from this structure file (default: empty)")
@click.option("--json", "as_json", is_flag=True)
def cmd_dense_family(arity: int, count: int, omega_name: str, sig_file: str | None,
                     as_json: bool) -> None:
    """Print the first COUNT dense-family members at the given arity."""
    omega = weak_modulus(omega_name)
    sig = EMPTY_SIGNATURE if sig_file is None else _load(sig_file).signature
    lines = [print_formula(phi) for phi in enumerate_family(sig, omega, arity, count)]
    payload = {
        "command": "dense-family",
        "arity": arity,
        "count": len(lines),
        "omega": omega.name,
        "formulas": lines,
    }
    _emit(payload, as_json, lines)


_FLOOR_TARGETS = ("identity", "square", "sqrt", "cap2")


@main.command("modulus-floor")
@click.option("--fn", "target", type=click.Choice(_FLOOR_TARGETS), required=True)
@click.option("--grid", "step_text", default="1/8", show_default=True, help="grid step")
@click.option("--bound", "bound_text", default="1", show_default=True)
@click.option("--kmax", default=8, show_default=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True)
def cmd_modulus_floor(target: str, step_text: str, bound_text: str, kmax: int, as_json: bool) -> None:
    """Largest-modulus-below envelope of a sampled 1-d target function.

    'sqrt' samples x = (k*step)^2 with exact values k*step; the other
    targets sample directly on the grid."""
    step = _rat_arg(step_text, "--grid")
    bound = _rat_arg(bound_text, "--bound")
    grid = RatGrid(1, step, bound)
    if target == "sqrt":
        # the squares' axis follows from the step and bound: refuse before building them
        axis_size({min(step, bound) ** 2, bound ** 2}, kmax)
        samples = {(v * v,): v for v in grid.axis()}
        env = largest_modulus_below(samples, kmax)
    else:
        fns = {
            "identity": lambda p: p[0],
            "square": lambda p: p[0] * p[0],
            "cap2": lambda p: min(ONE, 2 * p[0]),
        }
        env = largest_modulus_below(fns[target], kmax, grid=grid)
    table = env.table()
    rows = [(format_rational(p[0]), format_rational(v)) for p, v in table]
    payload = {
        "command": "modulus-floor",
        "target": target,
        "grid_step": format_rational(step),
        "bound": format_rational(bound),
        "k_max": kmax,
        "table": [{"x": x, "value": v} for x, v in rows],
    }
    _emit(payload, as_json, [f"{x} {v}" for x, v in rows])


@main.command("r0")
@click.argument("structure", type=click.Path())
@click.argument("tuple_a")
@click.argument("tuple_b")
@click.option("--family", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def cmd_r0(structure: str, tuple_a: str, tuple_b: str, family: int, as_json: bool) -> None:
    """Stage-0 back-and-forth distance between two same-length tuples."""
    s = _load(structure)
    a, b = _tuple_arg(tuple_a, s), _tuple_arg(tuple_b, s)
    if len(a) != len(b):
        raise ValueError("tuples must have the same length (unequal lengths are a "
                         "threshold-operator clause, not an r0 input)")
    engine = BFEngine(s, config=EngineConfig(family_size=family))
    value, meta = engine.r0_pair(a, b)
    payload = {
        "command": "r0",
        "structure": s.name,
        "tuple_a": list(a),
        "tuple_b": list(b),
        "value": format_rational(value),
        # r0_pair reads the family alone, not the table window
        "meta": meta | {"params": {"family_size": engine.config.family_size,
                                   "term_depth": engine.config.term_depth}},
    }
    lines = [f"r0 = {format_rational(value)}  [family {meta['family_size']}]"]
    if "metric_oracle" in meta:
        lines.append(
            f"metric closed form = {meta['metric_oracle']}"
            + ("  (exact at this arity)" if meta["metric_oracle_exact"] else "  (lower bound)")
        )
    _emit(payload, as_json, lines)


@main.command("ralpha")
@click.argument("structure", type=click.Path())
@click.option("--stage", required=True, type=click.IntRange(min=0))
@click.option("--arity", required=True, type=click.IntRange(min=1))
@click.option("--family", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def cmd_ralpha(structure: str, stage: int, arity: int, family: int, as_json: bool) -> None:
    """Print the full stage table at one arity (all tuple pairs); the
    window is exactly arity+stage."""
    s = _load(structure)
    engine = BFEngine(
        s,
        config=EngineConfig(family_size=family, max_arity=arity, table_cap=arity + stage),
    )
    rows = [
        {"a": list(a), "b": list(b), "value": format_rational(v)}
        for a, b, v in engine.pairs(arity, stage)
    ]
    payload = {
        "command": "ralpha",
        "structure": s.name,
        "stage": stage,
        "arity": arity,
        "meta": engine.config.meta(engine.cap),
        "pairs": rows,
    }
    lines = [
        f"({','.join(r['a'])}) ({','.join(r['b'])}) {r['value']}" for r in rows
    ]
    _emit(payload, as_json, lines)


@main.command("scott-rank")
@click.argument("structure", type=click.Path())
@click.option("--max-arity", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--family", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--table-cap", default=None, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True)
def cmd_scott_rank(structure: str, max_arity: int, family: int, table_cap: int | None,
                   as_json: bool) -> None:
    """Least stage from which every checked stage pair of the window is
    stable (no rank when the last checked pair is unstable)."""
    s = _load(structure)
    engine = BFEngine(s, config=EngineConfig(family_size=family, max_arity=max_arity,
                                             table_cap=table_cap))
    report = engine.scott_rank()
    payload = {
        "command": "scott-rank",
        "structure": s.name,
        "rank": report.rank,
        "definitive": report.definitive,
        "checkable_stages": report.checkable_stages,
        "meta": report.meta,
    }
    if report.definitive:
        lines = [
            f"rank {report.rank} (stable through the computed window; "
            f"arity cap {engine.config.max_arity}, table cap {engine.cap}, family {family})"
        ]
    elif report.checkable_stages < 0:
        lines = [f"no rank: no stage pair fits table cap {engine.cap}; raise --table-cap"]
    else:
        lines = [
            f"rank not stabilized within the window (checked stages 0..{report.checkable_stages}; "
            f"raise --table-cap for a deeper run)"
        ]
    _emit(payload, as_json, lines)


@main.command("fixpoint")
@click.argument("structure", type=click.Path())
@click.option("--q", "q_text", required=True, help="positive rational threshold, e.g. 1/10")
@click.option("--max-arity", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--family", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--table-cap", default=None, type=click.IntRange(min=1))
@click.option("--limit", default=50, show_default=True, type=click.IntRange(min=0),
              help="maximum number of member pairs to list")
@click.option("--json", "as_json", is_flag=True)
def cmd_fixpoint(structure: str, q_text: str, max_arity: int, family: int,
                 table_cap: int | None, limit: int, as_json: bool) -> None:
    """Least fixed point of the threshold operator at q, with entry stages."""
    s = _load(structure)
    q = _rat_arg(q_text, "--q")
    if q <= 0:
        raise ValueError("--q must be positive")
    engine = BFEngine(s, config=EngineConfig(family_size=family, max_arity=max_arity,
                                             table_cap=table_cap))
    trace = engine.gamma_fixpoint(q)
    total = 0
    shown = []
    for n in range(1, engine.cap + 1):
        tuples = engine.tuples(n)
        arr = trace.entry[n]
        mask = arr >= 0
        total += int(np.count_nonzero(mask))
        # the first members in row-major order lie in the first rows holding any
        rows = np.flatnonzero(mask.any(axis=1))[: limit - len(shown)]
        for r, j in np.argwhere(mask[rows])[: limit - len(shown)]:
            shown.append((n, tuples[rows[r]], tuples[j], int(arr[rows[r], j])))
    payload = {
        "command": "fixpoint",
        "structure": s.name,
        "q": format_rational(q),
        "closed": trace.closed,
        "closure_stage": trace.closure_stage,
        "stage_sizes": [
            {str(n): c for n, c in sizes.items()} for sizes in trace.stage_sizes
        ],
        "members_listed": len(shown),
        "members_total": total,
        "members": [
            {"arity": n, "a": list(a), "b": list(b), "entry_stage": k}
            for n, a, b, k in shown
        ],
        "note": "length-mismatched pairs are members from stage 0 and are not listed",
        "meta": trace.meta,
    }
    lines = [f"threshold q = {format_rational(q)}; closed at stage {trace.closure_stage}"]
    for n, a, b, k in shown:
        lines.append(f"({','.join(a)}) ({','.join(b)}) enters at stage {k}")
    if total > len(shown):
        lines.append(f"(+{total - len(shown)} more members)")
    _emit(payload, as_json, lines)


if __name__ == "__main__":
    main()
