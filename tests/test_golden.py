"""Golden-file checks: CLI output is pinned byte-for-byte.

Regenerate deliberately (after an intentional enumeration or format
change) with the commands named in each file's test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = PKG_ROOT / "data"

CASES = [
    (
        "dense_family_arity2_count20.txt",
        ["dense-family", "--arity", "2", "--count", "20"],
    ),
    *(
        (
            f"dense_family_arity{n}_count200.txt",
            ["dense-family", "--arity", str(n), "--count", "200"],
        )
        for n in (1, 2, 3, 4)
    ),
    (
        "dense_family_rel_demo_arity2_count200.txt",
        ["dense-family", "--signature", str(DATA / "rel_demo.ms"),
         "--arity", "2", "--count", "200"],
    ),
    (
        "fixpoint_three_point_q1_10.json",
        ["fixpoint", str(DATA / "three_point.ms"), "--q", "1/10",
         "--max-arity", "2", "--table-cap", "3", "--json"],
    ),
    (
        "scott_rank_two_point.json",
        ["scott-rank", str(DATA / "two_point.ms"), "--max-arity", "2", "--json"],
    ),
    (
        "r0_three_point.json",
        ["r0", str(DATA / "three_point.ms"), "x,y", "x,z", "--json"],
    ),
    (
        "ralpha_rel_demo_stage0_arity3.txt",
        ["ralpha", str(DATA / "rel_demo.ms"), "--stage", "0", "--arity", "3"],
    ),
    (
        "modulus_floor_square.txt",
        ["modulus-floor", "--fn", "square", "--grid", "1/8", "--kmax", "8"],
    ),
]


@pytest.mark.parametrize("golden,args", CASES, ids=[c[0] for c in CASES])
def test_golden(golden, args):
    proc = subprocess.run(
        [sys.executable, "-m", "mscott", *args],
        capture_output=True,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (GOLDEN / golden).read_bytes()
    assert proc.stdout == expected, f"output drifted from tests/golden/{golden}"
