"""The names the benchmark's tracer (``perfbench/tracer.py``) wraps must
exist: ``Tracer.install`` skips a missing one silently, so a rename would
zero its per-layer metrics without any failure."""

import ast
import importlib
from pathlib import Path

import pytest

from mscott.family import FamilyEnumerator
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
