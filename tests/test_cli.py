import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import validate as js_validate

PKG_ROOT = Path(__file__).resolve().parent.parent
DATA = PKG_ROOT / "data"


def run_cli(*args, env_extra=None, expect=0):
    import os

    env = os.environ.copy()
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=env,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr, (args, proc.stderr)
    return proc.stdout


def test_validate_ok():
    out = run_cli("validate", str(DATA / "three_point.ms"))
    assert "valid: three_point (3 points)" in out


def test_validate_rejects(tmp_path):
    bad = tmp_path / "bad.ms"
    bad.write_text("mscott/1\n[signature]\n[points]\nx y z\n[metric]\n1/5\n2/5 7/10\n")
    import os

    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "validate", str(bad)],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert "metric-triangle" in proc.stdout


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "no-such-command"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 2


def test_eval_value():
    out = run_cli("eval", str(DATA / "three_point.ms"), "d(v0, v1)", "x,y")
    assert out.strip() == "1/5"


def test_eval_decimal_labeled():
    out = run_cli("eval", str(DATA / "three_point.ms"), "sup v1 . d(v0, v1)", "x", "--decimal")
    assert out.strip().startswith("2/5")
    assert "~" in out


def test_r0_output():
    out = run_cli("r0", str(DATA / "three_point.ms"), "x,y", "x,z")
    assert "r0 = 1/5" in out
    assert "exact at this arity" in out


def test_scott_rank_two_point():
    out = run_cli("scott-rank", str(DATA / "two_point.ms"), "--max-arity", "2")
    assert "rank 0" in out


def test_scott_rank_names_the_family_size():
    # rank 0 here rests on the truncated family: at --family 1000 it is gone
    out = run_cli("scott-rank", str(DATA / "rel_demo.ms"), "--table-cap", "4")
    assert out == ("rank 0 (stable through the computed window; "
                   "arity cap 3, table cap 4, family 200)\n")


def test_fixpoint_entry_stage():
    out = run_cli(
        "fixpoint", str(DATA / "three_point.ms"), "--q", "1/10",
        "--max-arity", "2", "--table-cap", "3",
    )
    assert "(x) (y) enters at stage 1" in out


SCHEMAS = {
    "eval": {
        "type": "object",
        "required": ["command", "structure", "formula", "tuple", "value"],
        "properties": {
            "command": {"const": "eval"},
            "tuple": {"type": "array", "items": {"type": "string"}},
            "value": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
        },
    },
    "r0": {
        "type": "object",
        "required": ["command", "structure", "tuple_a", "tuple_b", "value", "meta"],
        "properties": {
            "value": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
            "meta": {
                "type": "object",
                "required": ["family_size", "arity"],
            },
        },
    },
    "dense-family": {
        "type": "object",
        "required": ["command", "arity", "count", "omega", "formulas"],
        "properties": {"formulas": {"type": "array", "items": {"type": "string"}}},
    },
    "scott-rank": {
        "type": "object",
        "required": ["command", "structure", "rank", "definitive", "meta"],
    },
    "fixpoint": {
        "type": "object",
        "required": ["command", "q", "closed", "closure_stage", "members", "meta"],
        "properties": {
            "members": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["arity", "a", "b", "entry_stage"],
                },
            }
        },
    },
    "validate": {
        "type": "object",
        "required": ["command", "structure", "points", "violations"],
    },
    "modulus-floor": {
        "type": "object",
        "required": ["command", "target", "grid_step", "k_max", "table"],
    },
    "ralpha": {
        "type": "object",
        "required": ["command", "structure", "stage", "arity", "pairs", "meta"],
    },
}


@pytest.mark.parametrize(
    "name,args",
    [
        ("validate", ["validate", str(DATA / "three_point.ms")]),
        ("eval", ["eval", str(DATA / "three_point.ms"), "d(v0, v1)", "x,y"]),
        ("dense-family", ["dense-family", "--arity", "2", "--count", "5"]),
        ("modulus-floor", ["modulus-floor", "--fn", "square", "--grid", "1/8"]),
        ("r0", ["r0", str(DATA / "three_point.ms"), "x,y", "x,z"]),
        ("ralpha", ["ralpha", str(DATA / "three_point.ms"), "--stage", "1", "--arity", "1"]),
        ("scott-rank", ["scott-rank", str(DATA / "two_point.ms"), "--max-arity", "2"]),
        (
            "fixpoint",
            ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10",
             "--max-arity", "2", "--table-cap", "3"],
        ),
    ],
)
def test_json_schema(name, args):
    out = run_cli(*args, "--json")
    payload = json.loads(out)
    js_validate(payload, SCHEMAS[name])


def test_ralpha_values():
    out = run_cli("ralpha", str(DATA / "three_point.ms"), "--stage", "1", "--arity", "1", "--json")
    payload = json.loads(out)
    vals = {(tuple(r["a"]), tuple(r["b"])): r["value"] for r in payload["pairs"]}
    assert vals[(("x",), ("y",))] == "1/5"
    assert vals[(("x",), ("x",))] == "0"


def test_modulus_floor_sqrt():
    out = run_cli("modulus-floor", "--fn", "sqrt", "--grid", "1/8", "--json")
    payload = json.loads(out)
    table = {row["x"]: row["value"] for row in payload["table"]}
    assert table["1/4"] == "1/2"  # envelope of a concave table is the table


@pytest.mark.parametrize(
    "args, message",
    [
        (["--fn", "square", "--grid", "0"], "step and bound must be positive rationals"),
        (["--fn", "square", "--bound", "-1"], "step and bound must be positive rationals"),
        (["--fn", "square", "--grid", "1/100000"],
         "sample coordinates refine to 800001 axis points; use a coarser grid"),
        (["--fn", "sqrt", "--grid", "1/100000"],
         "sample coordinates refine to 80000000001 axis points; use a coarser grid"),
    ],
)
def test_modulus_floor_refusals_are_messages(args, message):
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "modulus-floor", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"


def test_eval_formula_from_file(tmp_path):
    f = tmp_path / "phi.msf"
    f.write_text("sup v1 . d(v0, v1)\n")
    out = run_cli("eval", str(DATA / "three_point.ms"), f"@{f}", "x")
    assert out.strip() == "2/5"


def test_eval_formula_file_signature_header(tmp_path):
    good = tmp_path / "good.msf"
    good.write_text(
        "[signature]\nrel R 1 linear(1)\nfun f 1 linear(1)\nconst c\n"
        "[formula]\nlatmax(R(v0), d(f(v0), c))\n"
    )
    out = run_cli("eval", str(DATA / "rel_demo.ms"), f"@{good}", "v")
    assert out.strip() == "1/2"
    bad = tmp_path / "bad.msf"
    bad.write_text("[signature]\nrel Q 2 linear(1,1)\n[formula]\nd(v0, v0)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "eval", str(DATA / "rel_demo.ms"),
         f"@{bad}", "v"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert "signature" in proc.stderr


_REL_DEMO_HEADER = (
    "mscott/1\n[signature]\nrel R 1 linear(1)\nfun f 1 linear(1)\nconst c\n[formula]\n"
)


@pytest.mark.parametrize(
    "formula, file_text, message",
    [
        ("latmax(R(v0), latmin(d(v0, v1), Q(v1)))", None,
         "1:33: unknown relation symbol 'Q'"),
        ("latmax(R(v0), latmin(d(v0, v1), R(v0, v1)))", None,
         "1:33: relation R expects 1 arguments, got 2"),
        (None, "# distance\n\nsup v1 . d(g(v0), v1)\n", "3:12: unknown function symbol 'g'"),
        (None, _REL_DEMO_HEADER + "latmax(R(v0), d(e, v0))\n", "7:17: unknown constant 'e'"),
        (None, _REL_DEMO_HEADER + "latmax(R(v0), d;c, v0))\n", "7:16: expected '(', found ';'"),
        (None, "[signature]\nrel R 1 linear(1)\nfun f 1 bogus(1)\n[formula]\nR(v0)",
         "3:9: bad modulus: unknown modulus form 'bogus'"),
        (None, "[signature]\nrel R 1 linear(1)\nfun f 1 linear(1,x)\n[formula]\nR(v0)",
         "3:18: bad modulus: expected 'int', found 'x'"),
        (None, "junk\n[formula]\nd(v0, v1)",
         "1:1: expected 'mscott/1' or '[signature]' before [formula]"),
    ],
)
def test_formula_errors_carry_file_positions(tmp_path, formula, file_text, message):
    if formula is None:
        path = tmp_path / "phi.msf"
        path.write_text(file_text)
        formula = f"@{path}"
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "eval", str(DATA / "rel_demo.ms"), formula, "u,v"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: formula: {message}\n"


def test_fixpoint_limit_truncates():
    out = run_cli(
        "fixpoint", str(DATA / "three_point.ms"), "--q", "1/10",
        "--max-arity", "2", "--table-cap", "3", "--limit", "2", "--json",
    )
    payload = json.loads(out)
    assert payload["members_listed"] == 2
    assert payload["members_total"] > 2


def test_fixpoint_members_listed_in_row_major_order():
    from mscott.scott import BFEngine, EngineConfig
    from mscott.structures import load_structure

    args = ("fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--table-cap", "3", "--json")
    full = json.loads(run_cli(*args, "--limit", "1000"))
    cut = json.loads(run_cli(*args, "--limit", "10"))
    # the loop the command replaced: every pair of every arity, row-major
    engine = BFEngine(load_structure(DATA / "three_point.ms"), config=EngineConfig(table_cap=3))
    trace = engine.gamma_fixpoint(Fraction(1, 10))
    want = [
        {"arity": n, "a": list(a), "b": list(b), "entry_stage": int(trace.entry[n][i, j])}
        for n in range(1, engine.cap + 1)
        for i, a in enumerate(engine.tuples(n))
        for j, b in enumerate(engine.tuples(n))
        if trace.entry[n][i, j] >= 0
    ]
    assert full["members"] == want
    assert full["members_total"] == cut["members_total"] == len(want) > 10
    assert cut["members"] == want[:10]


def test_point_not_in_structure_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "eval", str(DATA / "three_point.ms"),
         "d(v0, v1)", "x,nope"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert "nope" in proc.stderr


def test_fixpoint_tiny_thresholds_exact():
    # members can only grow as q shrinks, whatever q's denominator
    def members(q):
        out = run_cli("fixpoint", str(DATA / "three_point.ms"), "--q", q,
                      "--table-cap", "3", "--json")
        return json.loads(out)["members_total"]

    assert members("3/68719476737") >= members("1/1000")
    assert members(f"1/{2 ** 70}") >= members("3/68719476737")


@pytest.mark.parametrize(
    "args",
    [
        ["r0", str(DATA / "square.ms"), "a,b", "a,c", "--family", "-5"],
        ["ralpha", str(DATA / "three_point.ms"), "--stage", "0", "--arity", "1", "--family", "-5"],
        ["scott-rank", str(DATA / "three_point.ms"), "--family", "-5"],
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--family", "-5"],
        ["dense-family", "--arity", "1", "--count", "-5"],
        ["scott-rank", str(DATA / "three_point.ms"), "--max-arity", "0", "--table-cap", "1"],
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--max-arity", "0"],
        # the table cap is the only window option; a stage cap is no option at all
        ["scott-rank", str(DATA / "two_point.ms"), "--stage-cap", "1"],
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--stage-cap", "1"],
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--limit", "-3"],
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10", "--table-cap", "0"],
        ["scott-rank", str(DATA / "three_point.ms"), "--table-cap", "-3"],
        ["ralpha", str(DATA / "three_point.ms"), "--stage", "-1", "--arity", "1"],
        ["ralpha", str(DATA / "three_point.ms"), "--stage", "0", "--arity", "0"],
        ["dense-family", "--arity", "0", "--count", "3"],
        ["modulus-floor", "--fn", "square", "--kmax", "0"],
    ],
)
def test_out_of_range_option_is_usage_error(args):
    run_cli(*args, expect=2)


def test_scott_rank_without_compared_stages():
    args = ("scott-rank", str(DATA / "three_point.ms"), "--max-arity", "1", "--table-cap", "1")
    out = run_cli(*args)
    assert out == "no rank: no stage pair fits table cap 1; raise --table-cap\n"
    payload = json.loads(run_cli(*args, "--json"))
    assert payload["rank"] is None and payload["checkable_stages"] == -1
    assert not payload["definitive"]


def _nested_latmin(depth):
    return "latmin(" * depth + "d(v0, v1)" + ")" * depth


def test_eval_deep_nesting_is_a_parse_error():
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", "eval", str(DATA / "three_point.ms"),
         _nested_latmin(2000), "x,y"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: formula: 1:")
    assert "nesting deeper than" in proc.stderr and "Traceback" not in proc.stderr


def test_eval_at_the_nesting_limit():
    from mscott.parser import MAX_DEPTH

    # latmin levels, the atomic, and its terms: MAX_DEPTH syntax-tree levels
    out = run_cli("eval", str(DATA / "three_point.ms"), _nested_latmin(MAX_DEPTH - 2), "x,y")
    assert out == "1/5\n"
    run_cli("eval", str(DATA / "three_point.ms"), _nested_latmin(MAX_DEPTH - 1), "x,y", expect=1)


@pytest.mark.parametrize(
    "args",
    [
        ["scott-rank", str(DATA / "square.ms"), "--table-cap", "7"],
        ["fixpoint", str(DATA / "square.ms"), "--q", "1/10", "--table-cap", "7"],
        ["ralpha", str(DATA / "square.ms"), "--stage", "3", "--arity", "4"],
    ],
)
def test_table_budget_refused_with_a_message(args):
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the stage-0 tables of arities 1..7 would hold ")
    assert "Traceback" not in proc.stderr


_READERS = {
    "validate": lambda path: ["validate", path],
    "eval": lambda path: ["eval", path, "d(v0, v1)", "x,y"],
    "eval @file": lambda path: ["eval", str(DATA / "three_point.ms"), f"@{path}", "x,y"],
    "dense-family --signature": lambda path: [
        "dense-family", "--arity", "1", "--count", "3", "--signature", path],
    "r0": lambda path: ["r0", path, "x", "y"],
    "ralpha": lambda path: ["ralpha", path, "--stage", "0", "--arity", "1"],
    "scott-rank": lambda path: ["scott-rank", path],
    "fixpoint": lambda path: ["fixpoint", path, "--q", "1/10"],
}


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command", list(_READERS))
def test_unreadable_input_is_one_error_line(tmp_path, command, kind):
    path = tmp_path / "input.ms"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"mscott/1\n# caf\xe9\n[signature]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", *_READERS[command](str(path))],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and str(path) in line
