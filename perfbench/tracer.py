"""Spans and counters around the calls into each ``mscott`` layer.

The tracer is installed from outside the program: it swaps the public
functions and methods of each ``src/mscott`` module for wrappers, in every
module namespace that holds them, and swaps the originals back when it is
removed.  ``src/`` itself is never edited.

Each call into a layer records one span (name, start, end, parent span,
operation id) and updates per-name counts and times.  A call a function
makes into itself (recursion) is part of the outer span, not a new one.
Spans stay in memory, up to ``MAX_SPANS``, and are written out at the end.

Run as a script, this file is the traced ``mscott`` child process of the
``cli-mix`` workload::

    python3 perfbench/tracer.py SPANS_OUT OP_ID -- <mscott arguments>
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MAX_SPANS = 1_000_000

LAYERS = ("cli", "structures", "parser", "family", "segments", "moduli",
          "evaluation", "syntax", "scott")

# span name -> (defining module, function); wrapped in every mscott module
# that binds the function, so ``from .x import f`` call sites are covered.
FUNCTIONS = {
    "structures.load_structure": ("mscott.structures", "load_structure"),
    "structures.loads_structure": ("mscott.structures", "loads_structure"),
    "structures.parse_structure": ("mscott.structures", "parse_structure"),
    "structures.validate": ("mscott.structures", "validate"),
    "parser.print_formula": ("mscott.parser", "print_formula"),
    "parser.parse_formula": ("mscott.parser", "parse_formula"),
    "family.family_stack": ("mscott.family", "family_stack"),
    "family.enumerate_family": ("mscott.family", "enumerate_family"),
    "segments.make_segment": ("mscott.segments", "make_segment"),
    "moduli.induced_modulus_exact": ("mscott.moduli", "induced_modulus_exact"),
    "moduli.largest_modulus_below": ("mscott.moduli", "largest_modulus_below"),
    "syntax.eval_connective": ("mscott.syntax", "eval_connective"),
}

# span name -> (module, class, method)
METHODS = {
    "family.take": ("mscott.family", "FamilyEnumerator", "take"),
    "evaluation.formula": ("mscott.evaluation", "Evaluator", "formula"),
    "scott.rank": ("mscott.scott", "BFEngine", "scott_rank"),
    "scott.fixpoint": ("mscott.scott", "BFEngine", "gamma_fixpoint"),
    "scott.oracle": ("mscott.scott", "BFEngine", "oracle_equivalence"),
    "scott.r0_pair": ("mscott.scott", "BFEngine", "r0_pair"),
    "scott.value": ("mscott.scott", "BFEngine", "value"),
    "scott.pairs": ("mscott.scott", "BFEngine", "pairs"),
    "scott.stage0": ("mscott.scott", "BFEngine", "_build"),
    "scott.lift": ("mscott.scott", "BFEngine", "table"),
}

SPAN_NAMES = ("cli.main",) + tuple(FUNCTIONS) + tuple(METHODS)
_NAME_ID = {n: i for i, n in enumerate(SPAN_NAMES)}


def empty_agg() -> dict:
    """Per-name calls, total and self seconds; per-layer outermost seconds
    and errors; free counters (summed) and maxima."""
    return {"calls": {}, "total": {}, "self": {}, "layer": {}, "errors": {},
            "count": {}, "max": {}}


def merge_agg(into: dict, other: dict, scale: float = 1.0) -> dict:
    for kind in ("calls", "total", "self", "layer", "errors", "count"):
        for k, v in other[kind].items():
            into[kind][k] = into[kind].get(k, 0) + v * scale
    for k, v in other["max"].items():
        into["max"][k] = max(into["max"].get(k, 0), v)
    return into


def diff_agg(a: dict, b: dict) -> dict:
    """``a - b`` for the summed kinds; maxima are taken from ``a``."""
    out = empty_agg()
    for kind in ("calls", "total", "self", "layer", "errors", "count"):
        for k, v in a[kind].items():
            out[kind][k] = v - b[kind].get(k, 0)
    out["max"] = dict(a["max"])
    return out


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.agg = empty_agg()
        self._stack: list[list] = []  # [name, layer, child_seconds, span_id]
        self._layer_depth = {layer: 0 for layer in LAYERS}
        self._next_id = 0
        self.dropped = 0
        self._cols = {"id": array("q"), "parent": array("q"), "name": array("q"),
                      "op": array("q"), "start": array("d"), "end": array("d")}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def run(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside one span called ``name``."""
        layer = name.split(".", 1)[0]
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][3] if stack else -1
        frame = [name, layer, 0.0, sid]
        stack.append(frame)
        outermost = self._layer_depth[layer] == 0
        self._layer_depth[layer] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if len(stack) < 2 or stack[-2][1] != layer:
                errors = self.agg["errors"]
                errors[layer] = errors.get(layer, 0) + 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._layer_depth[layer] -= 1
            dur = t1 - t0
            agg = self.agg
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
            agg["total"][name] = agg["total"].get(name, 0.0) + dur
            agg["self"][name] = agg["self"].get(name, 0.0) + dur - frame[2]
            if outermost:
                agg["layer"][layer] = agg["layer"].get(layer, 0.0) + dur
            if stack:
                stack[-1][2] += dur
            if len(self._cols["id"]) < MAX_SPANS:
                c = self._cols
                c["id"].append(sid)
                c["parent"].append(parent)
                c["name"].append(_NAME_ID[name])
                c["op"].append(self.op)
                c["start"].append(t0)
                c["end"].append(t1)
            else:
                self.dropped += 1

    def count(self, key: str, n: float = 1) -> None:
        self.agg["count"][key] = self.agg["count"].get(key, 0) + n

    def maximum(self, key: str, v: float) -> None:
        self.agg["max"][key] = max(self.agg["max"].get(key, 0), v)

    def _in(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def snapshot(self) -> dict:
        return copy.deepcopy(self.agg)

    # -- installation ------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._in(name):
                return fn(*args, **kwargs)
            return self.run(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, name: str, fn):
        tr = self
        special = {
            "family.take": tr._take,
            "scott.fixpoint": tr._fixpoint,
            "scott.stage0": tr._stage0,
            "scott.lift": tr._lift,
            "scott.pairs": tr._pairs,
        }.get(name)
        if special is not None:
            def traced(obj, *args, **kwargs):
                return special(fn, obj, *args, **kwargs)
        else:
            def traced(obj, *args, **kwargs):
                if tr._in(name):
                    return fn(obj, *args, **kwargs)
                return tr.run(name, fn, obj, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _take(self, fn, enum, *args, **kwargs):
        emitted = getattr(enum, "_emitted", None)
        before = len(emitted) if isinstance(emitted, list) else 0
        out = fn(enum, *args, **kwargs) if self._in("family.take") else \
            self.run("family.take", fn, enum, *args, **kwargs)
        if isinstance(emitted, list):
            self.count("family.members", len(emitted) - before)
        return out

    def _fixpoint(self, fn, engine, *args, **kwargs):
        trace = self.run("scott.fixpoint", fn, engine, *args, **kwargs)
        self.count("scott.fixpoint_iters", len(getattr(trace, "stage_sizes", ())))
        return trace

    def _stage0(self, fn, engine, *args, **kwargs):
        if getattr(engine, "_built", True) or self._in("scott.stage0"):
            return fn(engine, *args, **kwargs)
        out = self.run("scott.stage0", fn, engine, *args, **kwargs)
        denom = getattr(engine, "_denom", None)
        if isinstance(denom, int):
            self.maximum("scott.denom_bits", denom.bit_length())
        tables = getattr(engine, "_tables", {})
        if any(getattr(t, "dtype", None) == object for t in tables.values()):
            self.count("scott.object_engines")
        self.maximum("scott.table_bytes", window_table_bytes(engine))
        return out

    def _lift(self, fn, engine, n, stage, *args, **kwargs):
        tables = getattr(engine, "_tables", None)
        if stage == 0 or tables is None or (n, stage) in tables:
            return fn(engine, n, stage, *args, **kwargs)
        self.count("scott.lifts")
        if self._in("scott.lift"):
            return fn(engine, n, stage, *args, **kwargs)
        return self.run("scott.lift", fn, engine, n, stage, *args, **kwargs)

    def _pairs(self, fn, engine, *args, **kwargs):
        gen = fn(engine, *args, **kwargs)
        end = object()
        while (item := self.run("scott.pairs", next, gen, end)) is not end:
            yield item

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "mscott" or k.startswith("mscott.")) and m is not None]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                continue
            wrapped = self._wrap_function(name, orig)
            for mod in mods:
                if vars(mod).get(attr) is orig:
                    self._patch(mod, attr, wrapped)
        for name, (modname, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(modname), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            self._patch(cls, attr, self._wrap_method(name, orig))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        c = self._cols
        return {
            "id": np.frombuffer(c["id"], dtype=np.int64).copy(),
            "parent": np.frombuffer(c["parent"], dtype=np.int64).copy(),
            "name": np.frombuffer(c["name"], dtype=np.int64).copy(),
            "op": np.frombuffer(c["op"], dtype=np.int64).copy(),
            "start": np.frombuffer(c["start"], dtype=np.float64).copy(),
            "end": np.frombuffer(c["end"], dtype=np.float64).copy(),
        }

    def add_spans(self, spans: dict[str, np.ndarray], dropped: int) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        offset = self._next_id
        room = max(0, MAX_SPANS - len(self._cols["id"]))
        keep = min(room, len(spans["id"]))
        for key, col in self._cols.items():
            vals = spans[key][:keep]
            if key == "id":
                vals = vals + offset
            elif key == "parent":
                vals = np.where(vals >= 0, vals + offset, vals)
            col.extend(vals.tolist())
        if len(spans["id"]):
            self._next_id += int(spans["id"].max()) + 1
        self.dropped += dropped + len(spans["id"]) - keep

    def write(self, path: Path, extra: dict | None = None) -> None:
        meta = {"names": list(SPAN_NAMES), "agg": self.agg, "dropped": self.dropped,
                "extra": extra or {}}
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **self.spans())


def read_trace(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        spans = {k: z[k] for k in ("id", "parent", "name", "op", "start", "end")}
    return meta, spans


def window_table_bytes(engine) -> int:
    """Bytes of every stage table in the engine's triangular window, from
    the table shapes: (m^n)^2 cells of 8 bytes (an int64, or an object
    pointer without the Fraction it points to) per arity n and stage."""
    m = len(engine.s.points)
    total = 0
    for n in range(1, engine.cap + 1):
        total += (engine.window(n) + 1) * (m ** n) ** 2 * 8
    return total


def _child(argv: list[str]) -> int:
    out, op = Path(argv[0]), int(argv[1])
    args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("mscott.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    code = 0
    try:
        tracer.run("cli.main", cli.main, args=args, prog_name="mscott", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.remove()
        sys.stdout.flush()
        tracer.write(out, {"cli.import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
