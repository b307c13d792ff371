#!/usr/bin/env python3
"""The mscott benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``mscott`` is imported from
``src/``.  The process sets the workload up (``setup_s``: the median of
several cold set-ups), then runs a fixed number of whole cycles of the
workload's operations, one after another, and checks every output.  The
cycle count is ``round(seconds / cycle_s)``, fixed by ``--seconds`` and
the workload's nominal cycle length, but at least the workload's
``min_cycles``; a slower commit runs the same operations for longer than
``--seconds``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles instead and reports the per-layer metrics of
one set-up plus one cycle, the tracing overhead, and (cli-mix) the known
defect repros; the spans go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, diff_agg, merge_agg
from workloads import WORKLOADS, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "structures.load_s": "s",
    "parser.print_formula_calls": "count",
    "parser.print_formula_s": "s",
    "family.enumerate_s": "s",
    "family.members": "count",
    "family.segments_built": "count",
    "family.yield": "ratio",
    "segments.make_segment_s": "s",
    "moduli.induced_calls": "count",
    "moduli.induced_s": "s",
    "moduli.envelope_s": "s",
    "evaluation.formula_calls": "count",
    "evaluation.formula_s": "s",
    "evaluation.connective_calls": "count",
    "evaluation.connective_s": "s",
    "scott.stage0_s": "s",
    "scott.stage0_self_s": "s",
    "scott.denom_bits": "bits",
    "scott.object_engines": "count",
    "scott.table_bytes": "bytes",
    "scott.lifts": "count",
    "scott.lift_s": "s",
    "scott.rank_s": "s",
    "scott.fixpoint_s": "s",
    "scott.fixpoint_iters": "count",
    "scott.oracle_s": "s",
    "scott.pairs_s": "s",
    "scott.r0_pair_s": "s",
    "cli.errors": "count",
    "structures.errors": "count",
    "parser.errors": "count",
    "family.errors": "count",
    "segments.errors": "count",
    "moduli.errors": "count",
    "evaluation.errors": "count",
    "syntax.errors": "count",
    "scott.errors": "count",
    "cli.repro_ops": "count",
    "cli.repro_failed": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "trace.spans_dropped": "count",
}


now = time.perf_counter


def tail(times: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it: the
    sample with exactly ten above it.  Below 20 samples that percentile
    would not exceed the median, so the maximum is reported instead."""
    xs = sorted(times)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return "max", xs[-1]
    return f"p{100 * (n - TAIL_BEYOND) / n:.3g}", xs[n - TAIL_BEYOND - 1]


def stamp() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mscott").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "load": "closed loop, one client, single process (cli-mix: one mscott child at a time)"}


class CycleResult:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.cycles: list[tuple[bool, float]] = []  # (traced, seconds in operations)


def cycle_count(w, seconds: float, traced: bool) -> int:
    """Whole cycles in a run: ``round(seconds / w.cycle_s)``, at least
    ``w.min_cycles``.  The count depends on ``seconds`` alone, so every
    commit runs the same operations and takes its percentiles over the
    same sample count.  A traced run makes pairs of an untraced and a
    traced cycle instead, at least one pair."""
    n = round(seconds / w.cycle_s)
    if traced:
        return 2 * max(1, round(n / 2))
    return max(w.min_cycles, n)


def median_cycle_s(times: list[float], per_cycle: int) -> float:
    """The length of a cycle at each operation's median speed: the sum,
    over the cycle's operations, of each one's median time across cycles.
    A slow spell of the host that hits one cycle of an operation drops
    out, where it would stay in a plain total."""
    return sum(statistics.median(times[i::per_cycle]) for i in range(per_cycle))


def run_cycles(ops, cycles: int, tracer=None) -> CycleResult:
    """Run ``cycles`` whole cycles; with a tracer, every odd-numbered cycle
    is traced.  The first cycle's outputs are checked in full; later ones
    must reproduce them."""
    res = CycleResult()
    verified: dict[int, object] = {}
    for c in range(cycles):
        traced = tracer is not None and c % 2 == 1
        spent = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = c * len(ops) + i
            err = None
            t0 = now()
            try:
                out = op.run(tracer if traced else None)
            except Exception as exc:  # a failed operation is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            dt = now() - t0
            spent += dt
            res.times.append(dt)
            if err is None:
                if i in verified:
                    if op.digest(out) != verified[i]:
                        err = "output differs from the first cycle"
                else:
                    err = op.check(out)
                    if err is None:
                        verified[i] = op.digest(out)
            if err is not None:
                res.failed += 1
                print(f"FAILED {op.label}: {err}", file=sys.stderr)
        res.cycles.append((traced, spent))
    return res


def layer_metrics(agg: dict, import_s: float) -> dict[str, float]:
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    layer, errors, count, most = agg["layer"], agg["errors"], agg["count"], agg["max"]
    children = count.get("cli.children", 0)
    members = count.get("family.members", 0)
    segments = calls.get("segments.make_segment", 0)
    m = {
        "cli.import_s": count.get("cli.import_s", 0) / children if children else import_s,
        "structures.load_s": layer.get("structures", 0),
        "parser.print_formula_calls": calls.get("parser.print_formula", 0),
        "parser.print_formula_s": total.get("parser.print_formula", 0),
        "family.enumerate_s": layer.get("family", 0),
        "family.members": members,
        "family.segments_built": segments,
        "family.yield": members / segments if segments else 0,
        "segments.make_segment_s": total.get("segments.make_segment", 0),
        "moduli.induced_calls": calls.get("moduli.induced_modulus_exact", 0),
        "moduli.induced_s": total.get("moduli.induced_modulus_exact", 0),
        "moduli.envelope_s": total.get("moduli.largest_modulus_below", 0),
        "evaluation.formula_calls": calls.get("evaluation.formula", 0),
        "evaluation.formula_s": total.get("evaluation.formula", 0),
        "evaluation.connective_calls": calls.get("syntax.eval_connective", 0),
        "evaluation.connective_s": total.get("syntax.eval_connective", 0),
        "scott.stage0_s": total.get("scott.stage0", 0),
        "scott.stage0_self_s": self_s.get("scott.stage0", 0),
        "scott.denom_bits": most.get("scott.denom_bits", 0),
        "scott.object_engines": count.get("scott.object_engines", 0),
        "scott.table_bytes": most.get("scott.table_bytes", 0),
        "scott.lifts": count.get("scott.lifts", 0),
        "scott.lift_s": self_s.get("scott.lift", 0),
        "scott.rank_s": total.get("scott.rank", 0),
        "scott.fixpoint_s": total.get("scott.fixpoint", 0),
        "scott.fixpoint_iters": count.get("scott.fixpoint_iters", 0),
        "scott.oracle_s": total.get("scott.oracle", 0),
        "scott.pairs_s": total.get("scott.pairs", 0),
        "scott.r0_pair_s": total.get("scott.r0_pair", 0),
    }
    for name in PER_LAYER:
        if name.endswith(".errors"):
            m[name] = errors.get(name.split(".")[0], 0)
    return m


def timed_run(w, seed: int, seconds: float, import_s: float):
    reps = []
    for i in range(SETUP_REPS):
        if i:
            w.reset()
        t0 = now()
        w.setup(seed)
        reps.append(now() - t0)
    setup_s = statistics.median(reps) + (import_s if w.setup_includes_import else 0.0)
    ops = w.ops(seed)
    res = run_cycles(ops, cycle_count(w, seconds, False))
    label, tail_s = tail(res.times)
    n = len(res.times)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / median_cycle_s(res.times, len(ops)),
        "op_p50_s": statistics.median(res.times),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(w),
    }
    print(f"# {w.name}: {n} operations in {len(res.cycles)} cycles of {len(ops)}")
    for i, op in enumerate(ops):
        own = res.times[i::len(ops)]
        print(f"#   {statistics.median(own):.4f} s median of {len(own)}: {op.label}")
    print(f"# set-up: import {import_s:.4f} s"
          f"{' (counted)' if w.setup_includes_import else ' (not counted)'}, "
          f"{SETUP_REPS} set-ups: " + ", ".join(f"{r:.4f}" for r in reps) + " s")
    notes = {"op_p50_s": f"median of n={n}",
             "op_tail_s": f"{label} of n={n}" + (" (fewer than 20 samples)" if label == "max" else ""),
             "peak_rss_mb": "mscott child processes" if w.name == "cli-mix" else "this process"}
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {END_TO_END[k]}" + (f"  [{notes[k]}]" if k in notes else ""))
    print(f"error_rate {res.failed / n:.6g} (attempted {n}, failed {res.failed})")
    return metrics, END_TO_END, n, res.failed


def traced_run(w, seed: int, seconds: float, import_s: float):
    tracer = Tracer()
    tracer.install()
    try:
        w.setup(seed)
    finally:
        tracer.remove()
    setup_agg = tracer.snapshot()
    ops = w.ops(seed)
    res = run_cycles(ops, cycle_count(w, seconds, True), tracer)
    traced_s = [spent for traced, spent in res.cycles if traced]
    plain_s = [spent for traced, spent in res.cycles if not traced]
    agg = merge_agg(copy.deepcopy(setup_agg), diff_agg(tracer.agg, setup_agg),
                    1.0 / len(traced_s))
    metrics = layer_metrics(agg, import_s)
    plain = statistics.mean(plain_s)
    traced = statistics.mean(traced_s)
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    metrics["trace.spans"] = tracer.spans()["id"].size
    metrics["trace.spans_dropped"] = tracer.dropped
    repros = w.repros() if hasattr(w, "repros") else []
    metrics["cli.repro_ops"] = len(repros)
    metrics["cli.repro_failed"] = sum(1 for _, fail in repros if fail)

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    spans_path = work / f"trace-{w.name}-seed{seed}.npz"
    tracer.write(spans_path, {"workload": w.name, "seed": seed, "ops": [op.label for op in ops],
                              "op_seconds": res.times})
    n = len(res.times)
    print(f"# {w.name}: {len(plain_s)} untraced and {len(traced_s)} traced cycles, alternating, "
          f"of {len(ops)} operations; per-layer values are "
          "one set-up plus one traced cycle")
    print(f"# seconds in operations per cycle: untraced {plain:.4f}, traced {traced:.4f}")
    print(f"# spans: {os.path.relpath(spans_path, ROOT)}")
    for cmd, fail in repros:
        print(f"# repro {'FAILS' if fail else 'passes'}: mscott {cmd}" + (f" -- {fail}" if fail else ""))
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {PER_LAYER[k]}")
    print(f"error_rate {res.failed / n:.6g} (attempted {n}, failed {res.failed})")
    return metrics, PER_LAYER, n, res.failed


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    src = ROOT / "src"
    missing = [p for p in (src / "mscott" / "__init__.py", ROOT / "data", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        print("perfbench: run from a source checkout; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = now()
    import mscott
    import_s = now() - t0
    if Path(mscott.__file__).resolve().parent != (src / "mscott").resolve():
        print(f"perfbench: imported mscott from {mscott.__file__}, not from src/", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload](ROOT)
    print("# stamp " + json.dumps(stamp(), sort_keys=True))
    run = traced_run if args.trace else timed_run
    metrics, units, attempted, failed = run(w, args.seed, args.seconds, import_s)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
