"""The names the benchmark's tracer (``perfbench/tracer.py``) wraps must
exist: ``Tracer.install`` skips a missing one silently, so a rename would
zero its per-layer metrics without any failure.  The program surface the
workloads (``perfbench/workloads.py``) read must exist too, so that a
deletion fails here rather than in the benchmark."""

import ast
import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from mscott.cli import main
from mscott.family import FamilyEnumerator, family_stack
from mscott.moduli import SumWeakModulus
from mscott.scott import BFEngine, EngineConfig
from mscott.syntax import EMPTY_SIGNATURE

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_dict(name: str) -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("span, target", sorted(_tracer_dict("FUNCTIONS").items()))
def test_traced_function_exists(span, target):
    module, name = target
    assert callable(getattr(importlib.import_module(module), name, None)), span


@pytest.mark.parametrize("span, target", sorted(_tracer_dict("METHODS").items()))
def test_traced_method_exists(span, target):
    module, cls, name = target
    owner = getattr(importlib.import_module(module), cls, None)
    assert owner is not None and callable(vars(owner).get(name)), span


def test_traced_engine_state(three_point):
    # the stage-0 span is recorded only while ``_built`` is False, and the
    # member count reads ``_emitted``
    eng = BFEngine(three_point, config=EngineConfig(family_size=20, table_cap=2))
    assert eng._built is False
    eng.codebook
    assert eng._built is True
    enum = FamilyEnumerator(EMPTY_SIGNATURE, SumWeakModulus(), 1)
    enum.take(3)
    assert isinstance(enum._emitted, list) and len(enum._emitted) == 3


def test_workload_surface(three_point, data_dir):
    cfg = EngineConfig(family_size=20, max_arity=2, table_cap=3)
    # positional, as the corpus warm-up and the stage-0 check call it
    assert family_stack(EMPTY_SIGNATURE, SumWeakModulus(), 1, 3, cfg.term_depth)
    eng = BFEngine(three_point, config=cfg)
    rank = eng.scott_rank()
    assert isinstance(rank.definitive, bool) and isinstance(rank.checkable_stages, int)
    rep = eng.oracle_equivalence(Fraction(1, 10))
    assert rep.ok and rep.q == Fraction(1, 10) and rep.mismatches == ()
    assert isinstance(rep.pairs_checked, int)
    trace = eng.gamma_fixpoint(rep.q)
    assert trace.closed and isinstance(trace.closure_stage, int)
    assert trace.entry_stage(("x",), ("y",), eng) == 1
    out = CliRunner().invoke(main, ["fixpoint", str(data_dir / "three_point.ms"), "--q", "1/10",
                                    "--max-arity", "2", "--table-cap", "3", "--json"])
    assert out.exit_code == 0 and json.loads(out.output)["closed"] is True
