"""The benchmark workloads: their set-up, operations and output checks.

A workload is set up once per process (``setup``), then runs the same
cycle of operations (``ops``) again and again.  Every cycle does the same
work, so a run made of whole cycles has a fixed composition whatever its
length.  ``reset`` drops the process caches a set-up fills, so set-up can
be timed again from cold.

Each operation returns its output, and ``check`` compares that output with
something computed apart from the timed path: a golden file, an exact
Fraction brute force through the tree-walking evaluator, the benchmark's
own reading of a ``.ms`` file, or exact properties of the pseudo-distances
and the threshold fixpoint.  Outputs are deterministic, so later cycles
are checked against the first cycle's verified output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from inputs import decimal_structure, dyadic_structure, fmt, read_ms_metric, thresholds
from tracer import Tracer, merge_agg, read_trace

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    run: Callable[[Tracer | None], object]
    check: Callable[[object], str | None]  # None when the output is correct
    digest: Callable[[object], object]  # what later cycles must reproduce


class _Traced:
    """Installs the tracer around one in-process operation."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.remove()


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


def reset_family_cache() -> None:
    """Forget every family enumerated so far, so the next set-up is cold."""
    import mscott.family
    cache = getattr(mscott.family, "_ENUM_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


# ---------------------------------------------------------------------------
# In-process engine workloads: corpus and wide
# ---------------------------------------------------------------------------


class EngineWorkload:
    """One operation: build an engine, ``scott_rank``, then
    ``oracle_equivalence`` at a few thresholds, on one seeded structure."""

    name = ""
    setup_includes_import = True
    shapes: tuple[tuple[int, bool], ...] = ()  # (points, carries relation R) per op
    family_size = 0
    table_cap = 0
    cycle_s = 0.0  # nominal seconds per cycle; see run.cycle_count
    min_cycles = 1
    threshold_denominators = (4, 5, 8, 10, 16)
    thresholds_per_op = 3
    sampled_pairs = 8

    def __init__(self, root: Path):
        self.root = root
        self.structures: list = []
        self.qs: list[list[Fraction]] = []

    def generate(self, rng: random.Random, i: int, n: int, rel: bool) -> str:
        return dyadic_structure(rng, n, rel, f"{self.name}{i}")

    def config(self):
        from mscott.scott import EngineConfig
        return EngineConfig(family_size=self.family_size, max_arity=3,
                            table_cap=self.table_cap)

    def setup(self, seed: int) -> None:
        import mscott.family
        import mscott.structures
        from mscott.moduli import SumWeakModulus
        rng = _rng(seed, self.name)
        self.structures = []
        self.qs = []
        for i, (n, rel) in enumerate(self.shapes):
            text = self.generate(rng, i, n, rel)
            self.structures.append(mscott.structures.loads_structure(text, name=f"{self.name}{i}"))
            self.qs.append(thresholds(rng, self.thresholds_per_op, self.threshold_denominators))
        # Family enumeration is cached for the life of the process, so a
        # user pays it once: it belongs to set-up, not to the operations.
        for sig in {s.signature for s in self.structures}:
            for n in range(1, self.table_cap + 1):
                mscott.family.family_stack(sig, SumWeakModulus(), n, self.family_size)

    def reset(self) -> None:
        reset_family_cache()

    def ops(self, seed: int) -> list[Op]:
        out = []
        for i, s in enumerate(self.structures):
            rng = _rng(seed, f"{self.name}-check{i}")
            out.append(Op(
                label=f"{s.name}({len(s.points)}pt{'+R' if s.signature.relations else ''})",
                run=lambda tr, s=s, qs=self.qs[i]: self._run(tr, s, qs),
                check=lambda o, rng=rng: self._check(o, rng),
                digest=self._digest,
            ))
        return out

    def _run(self, tracer, s, qs):
        from mscott.scott import BFEngine
        with _Traced(tracer):
            eng = BFEngine(s, config=self.config())
            rank = eng.scott_rank()
            reports = [eng.oracle_equivalence(q) for q in qs]
        return eng, rank, reports

    @staticmethod
    def _digest(out):
        eng, rank, reports = out
        vals = []
        for n in range(1, eng.cap + 1):
            tuples = eng.tuples(n)
            a, b = tuples[0], tuples[-1]
            vals += [str(eng.value(k, a, b)) for k in range(eng.window(n) + 1)]
        return (rank.rank, rank.definitive, rank.checkable_stages,
                [(r.ok, r.pairs_checked, r.mismatches) for r in reports], vals)

    def _check(self, out, rng: random.Random) -> str | None:
        eng, rank, reports = out
        s = eng.s
        m = len(s.points)
        for r in reports:
            if not r.ok:
                return f"oracle_equivalence reports mismatches at q={r.q}"
            expected = sum((m ** n) ** 2 for n in range(1, eng.cap + 1))
            if r.pairs_checked != expected:
                return f"oracle checked {r.pairs_checked} pairs, expected {expected}"
        err = check_pseudo_distance(eng)
        if err:
            return err
        samples = {n: [(rng.choice(eng.tuples(n)), rng.choice(eng.tuples(n)))
                       for _ in range(self.sampled_pairs)] for n in range(1, eng.cap + 1)}
        err = check_r0_brute_force(eng, samples[1][:3] + samples[2][:2])
        if err:
            return err
        for n, pairs in samples.items():
            w = eng.window(n)
            for a, b in pairs:
                vals = [eng.value(k, a, b) for k in range(w + 1)]
                if any(x > y for x, y in zip(vals, vals[1:])):
                    return f"stages not monotone at {a},{b}: {vals}"
        if rank.rank is not None:
            if not 0 <= rank.rank <= rank.checkable_stages:
                return f"rank {rank.rank} outside 0..{rank.checkable_stages}"
            top = min(eng.config.max_arity, eng.cap - 1)
            for n in range(1, top + 1):
                for a, b in samples[n]:
                    if eng.value(rank.rank, a, b) != eng.value(rank.rank + 1, a, b):
                        return f"rank {rank.rank} but stage tables differ at {a},{b}"
        for r in reports:
            trace = eng.gamma_fixpoint(r.q)
            for n, pairs in samples.items():
                err = check_entry_stages(eng, trace, r.q, pairs)
                if err:
                    return err
        return None


class CorpusWorkload(EngineWorkload):
    name = "corpus"
    # Two draws of each shape of the acceptance corpus (``corpus`` in
    # tests/conftest.py): 2 to 6 points, mostly 3 and 4, with R on every
    # fifth structure.  The second draw halves the seed-to-seed variation
    # of the median, which falls among the 4-point builds.
    shapes = tuple((n, i % 5 == 4) for i, n in
                   enumerate((2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 3, 4))) * 2
    family_size = 50
    table_cap = 4
    cycle_s = 23.0


class WideWorkload(EngineWorkload):
    name = "wide"
    # The corpus operation at table cap 3 on 8-digit decimal distances:
    # their 10^8 denominators take the common denominator to 41 bits, past
    # the int64 limit, so the object-dtype Fraction tables are built.
    # Three 3-point builds per 4-point one put the median among them; the
    # 4-point build is the slow object-path case.
    shapes = ((3, False), (3, False), (3, False), (4, False))
    family_size = 50
    table_cap = 3
    cycle_s = 3.3
    # 24 samples, so that the tail sample (ten above it) lies above the median
    min_cycles = 6

    def generate(self, rng, i, n, rel):
        return decimal_structure(rng, n, f"{self.name}{i}")


# ---------------------------------------------------------------------------
# In-process reads of built tables: queries
# ---------------------------------------------------------------------------


class QueriesWorkload:
    """Set-up builds every stage table of a 6-point and a 5-point+R
    structure; each operation then reads them at a seeded threshold: one
    ``gamma_fixpoint`` plus ``pairs`` and ``value`` reads on the 6-point
    tables, or one ``oracle_equivalence`` on the 5-point+R ones."""

    name = "queries"
    setup_includes_import = True
    shapes = ((6, False), (5, True))
    family_size = 20
    table_cap = 4
    ops_per_cycle = 48
    cycle_s = 1.52
    min_cycles = 1
    reads_per_op = 16

    def __init__(self, root: Path):
        self.root = root
        self.engines: list = []

    def setup(self, seed: int) -> None:
        import mscott.structures
        from mscott.scott import BFEngine, EngineConfig
        rng = _rng(seed, self.name)
        cfg = EngineConfig(family_size=self.family_size, max_arity=3, table_cap=self.table_cap)
        self.engines = []
        for i, (n, rel) in enumerate(self.shapes):
            s = mscott.structures.loads_structure(
                dyadic_structure(rng, n, rel, f"q{i}"), name=f"q{i}")
            eng = BFEngine(s, config=cfg)
            for k in range(1, eng.cap + 1):
                for stage in range(eng.window(k) + 1):
                    eng.table(k, stage)
            self.engines.append(eng)

    def reset(self) -> None:
        reset_family_cache()

    def ops(self, seed: int) -> list[Op]:
        rng = _rng(seed, f"{self.name}-ops")
        n_ops = self.ops_per_cycle
        # one threshold in each of n_ops equal slices of (0, 1), so every
        # seed spreads its thresholds, and their fixpoint depths, alike
        qs = [Fraction(max(1, int((i + rng.random()) * 256 / n_ops)), 256) for i in range(n_ops)]
        rng.shuffle(qs)
        reader, oracle = self.engines
        out = []
        for i, q in enumerate(qs):
            # two reads to one oracle, so the median falls among the reads
            if i % 3 != 2:
                eng = reader
                reads = []
                for _ in range(self.reads_per_op):
                    n = rng.randint(2, eng.cap)
                    reads.append((n, rng.randint(0, eng.window(n)),
                                  rng.choice(eng.tuples(n)), rng.choice(eng.tuples(n))))
                stage1 = rng.randint(0, eng.window(1))
                out.append(Op(f"fixpoint+read {eng.s.name} q={q}",
                              lambda tr, e=eng, q=q, r=reads, s1=stage1: self._read(tr, e, q, r, s1),
                              lambda o, e=eng, q=q, r=reads: self._check_read(o, e, q, r),
                              self._digest_read))
            else:
                eng = oracle
                out.append(Op(f"oracle {eng.s.name} q={q}",
                              lambda tr, e=eng, q=q: self._oracle(tr, e, q),
                              lambda o, e=eng, rng=_rng(seed, f"q{i}"): self._check_oracle(o, e, rng),
                              lambda o: (o.ok, o.pairs_checked, o.mismatches)))
        return out

    @staticmethod
    def _read(tracer, eng, q, reads, stage1):
        with _Traced(tracer):
            trace = eng.gamma_fixpoint(q)
            rows = [(a, b, v) for a, b, v in eng.pairs(1, stage1)]
            vals = [eng.value(stage, a, b) for _, stage, a, b in reads]
        return trace, rows, vals

    @staticmethod
    def _digest_read(out):
        trace, rows, vals = out
        entries = hashlib.sha256(b"".join(e.tobytes() for e in trace.entry.values()))
        return trace.closure_stage, entries.hexdigest(), rows, vals

    @staticmethod
    def _oracle(tracer, eng, q):
        with _Traced(tracer):
            return eng.oracle_equivalence(q)

    @staticmethod
    def _check_read(out, eng, q, reads) -> str | None:
        trace, rows, vals = out
        for a, b, v in rows:
            if (a == b and v != 0) or not 0 <= v <= 1:
                return f"pairs gave r({a},{b}) = {v}"
        by_pair = {(a, b): v for a, b, v in rows}
        if any(by_pair[(b, a)] != v for (a, b), v in by_pair.items()):
            return "pairs gave an asymmetric table"
        pairs = [(a, b) for a, b, _ in rows] + [(a, b) for _, _, a, b in reads]
        for (_, stage, a, b), v in zip(reads, vals):
            if v != eng.value(stage, b, a):
                return f"value not symmetric at {a},{b}"
        return check_entry_stages(eng, trace, q, pairs)

    @staticmethod
    def _check_oracle(rep, eng, rng) -> str | None:
        if not rep.ok:
            return f"oracle_equivalence reports mismatches at q={rep.q}"
        trace = eng.gamma_fixpoint(rep.q)
        pairs = []
        for n in range(1, eng.cap + 1):
            pairs += [(rng.choice(eng.tuples(n)), rng.choice(eng.tuples(n))) for _ in range(8)]
        return check_entry_stages(eng, trace, rep.q, pairs)


# ---------------------------------------------------------------------------
# Exact checks shared by the in-process workloads
# ---------------------------------------------------------------------------


def check_entry_stages(eng, trace, q: Fraction, pairs) -> str | None:
    """Fixpoint entry stages against the exact r-threshold predicate,
    compared in Fractions read through ``value()``, within the window."""
    for a, b in pairs:
        n = len(a)
        w = eng.window(n)
        exact = next((k for k in range(w + 1) if eng.value(k, a, b) > q), None)
        got = trace.entry_stage(a, b, eng)
        if got is not None and got > w:
            got = None
        if got != exact:
            return f"fixpoint entry stage {got} != exact {exact} at {a},{b}, q={q}"
    return None


def check_pseudo_distance(eng) -> str | None:
    """Reflexivity, symmetry and the triangle inequality at arity 1, every
    stage in the window, in exact Fractions."""
    pts = [(p,) for p in eng.s.points]
    for k in range(eng.window(1) + 1):
        r = {(a, b): eng.value(k, a, b) for a in pts for b in pts}
        for a, b in r:
            if a == b and r[(a, b)] != 0:
                return f"stage {k}: r({a},{a}) != 0"
            if r[(a, b)] != r[(b, a)]:
                return f"stage {k}: r not symmetric at {a},{b}"
        for a, b, c in product(pts, repeat=3):
            if r[(a, c)] > r[(a, b)] + r[(b, c)]:
                return f"stage {k}: triangle fails at {a},{b},{c}"
    return None


def check_r0_brute_force(eng, pairs) -> str | None:
    """Stage 0 against max |phi(a) - phi(b)| over the family, each phi
    evaluated exactly by the tree-walking ``Evaluator``."""
    from mscott.evaluation import Evaluator
    from mscott.family import family_stack
    from mscott.moduli import SumWeakModulus
    ev = Evaluator(eng.s)
    cfg = eng.config
    for a, b in pairs:
        family = family_stack(eng.s.signature, SumWeakModulus(), len(a), cfg.family_size,
                              cfg.term_depth)
        best = max((abs(ev.formula(phi, a) - ev.formula(phi, b)) for phi in family),
                   default=Fraction(0))
        if best != eng.value(0, a, b):
            return f"r0({a},{b}) = {eng.value(0, a, b)}, brute force gives {best}"
    return None


# ---------------------------------------------------------------------------
# Process per operation: cli-mix
# ---------------------------------------------------------------------------


EVAL_FORMULAS = (
    # (formula, arity, exact value from the metric d and the points)
    ("sup v1 . d(v0, v1)", 1, lambda d, pts, t: max(d[(t[0], p)] for p in pts)),
    ("latmin(d(v0, v1), const(1/2))", 2, lambda d, pts, t: min(d[t], Fraction(1, 2))),
    ("inf v2 . latmax(d(v0, v2), d(v1, v2))", 2,
     lambda d, pts, t: min(max(d[(t[0], p)], d[(t[1], p)]) for p in pts)),
)

class CliMixWorkload:
    """Each operation is one fresh ``python -m mscott`` process, started
    only after the previous one has ended.  A cycle runs all eight
    subcommands on ``data/*.ms`` with their documented flags."""

    name = "cli-mix"
    setup_includes_import = False
    cycle_s = 10.5
    # Every command of the cycle gets a median of three, so one slow
    # spell of the shared host does not set the cycle's length.
    min_cycles = 3

    def __init__(self, root: Path):
        self.root = root
        self.data = root / "data"
        self.golden = root / "tests" / "golden"
        self.work = root / ".perfbench_work"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("MSCOTT_PARALLEL", None)
        self.tracer_path = Path(__file__).resolve().parent / "tracer.py"

    def _mscott(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mscott", *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def setup(self, seed: int) -> None:
        """What every user process pays before the first command: one
        ``mscott --help`` start-up (interpreter, import, click)."""
        proc = self._mscott(["--help"])
        if proc.returncode != 0:
            raise RuntimeError(f"mscott --help failed: {proc.stderr.strip()}")

    def reset(self) -> None:
        pass

    def _metric(self, stem: str):
        return read_ms_metric((self.data / f"{stem}.ms").read_text(encoding="utf-8"))

    def ops(self, seed: int) -> list[Op]:
        rng = _rng(seed, self.name)
        mix: list[tuple[list[str], Callable]] = []

        stem = rng.choice(["two_point", "three_point", "square", "line9", "rel_demo"])
        mix.append((["validate", f"data/{stem}.ms"], self._check_validate(stem)))

        stem = rng.choice(["three_point", "square", "line9"])
        formula, arity, exact = rng.choice(EVAL_FORMULAS)
        pts, d = self._metric(stem)
        tup = tuple(rng.choice(pts) for _ in range(arity))
        want = fmt(exact(d, pts, tup)) + "\n"
        mix.append((["eval", f"data/{stem}.ms", formula, ",".join(tup)],
                    lambda p, want=want: None if p.stdout == want else f"expected {want!r}"))

        mix.append((["dense-family", "--arity", "2", "--count", "200"], self._check_family))

        mix.append((["modulus-floor", "--fn", "square", "--grid", "1/32", "--kmax", "16"],
                    self._check_floor(Fraction(1, 32))))

        pts, d = self._metric("three_point")
        a = tuple(rng.sample(pts, 2))
        b = tuple(rng.sample(pts, 2))
        mix.append((["r0", "data/three_point.ms", ",".join(a), ",".join(b), "--json"],
                    self._check_r0(d, a, b)))

        stage, arity = rng.choice([(1, 1), (0, 2)])
        mix.append((["ralpha", "data/three_point.ms", "--stage", str(stage), "--arity",
                     str(arity), "--json"], self._check_ralpha(pts, arity)))

        mix.append((["scott-rank", "data/two_point.ms", "--max-arity", "2", "--json"],
                    self._golden("scott_rank_two_point.json")))

        q = rng.choice([Fraction(1, 10)] + thresholds(rng, 1, (5, 8, 16, 20, 32)))
        mix.append((["fixpoint", "data/three_point.ms", "--q", fmt(q), "--max-arity", "2",
                     "--table-cap", "3", "--json"], self._check_fixpoint(q)))

        rng.shuffle(mix)
        return [Op(" ".join(args), lambda tr, args=args: self._run(tr, args),
                   lambda p, chk=chk: self._check(p, chk), lambda p: (p.returncode, p.stdout))
                for args, chk in mix]

    def _run(self, tracer: Tracer | None, args: list[str]) -> subprocess.CompletedProcess:
        if tracer is None:
            return self._mscott(args)
        self.work.mkdir(exist_ok=True)
        fd, out = tempfile.mkstemp(suffix=".npz", dir=self.work)
        os.close(fd)
        try:
            proc = subprocess.run(
                [sys.executable, str(self.tracer_path), out, str(tracer.op), "--", *args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            meta, spans = read_trace(Path(out))
        finally:
            os.unlink(out)
        merge_agg(tracer.agg, meta["agg"])
        tracer.count("cli.children")
        tracer.count("cli.import_s", meta["extra"]["cli.import_s"])
        tracer.add_spans(spans, meta["dropped"])
        return proc

    @staticmethod
    def _check(proc, chk) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return chk(proc)

    def _golden(self, name: str):
        want = (self.golden / name).read_text(encoding="utf-8")
        return lambda p: None if p.stdout == want else f"output differs from tests/golden/{name}"

    def _check_validate(self, stem: str):
        pts, _ = read_ms_metric((self.data / f"{stem}.ms").read_text(encoding="utf-8"))
        want = f"valid: {stem} ({len(pts)} points)\n"
        return lambda p: None if p.stdout == want else f"expected {want!r}"

    def _check_family(self, proc) -> str | None:
        lines = proc.stdout.splitlines()
        head = (self.golden / "dense_family_arity2_count20.txt").read_text(encoding="utf-8")
        if len(lines) != 200:
            return f"expected 200 members, got {len(lines)}"
        if lines[:20] != head.splitlines():
            return "first 20 members differ from tests/golden/dense_family_arity2_count20.txt"
        return None

    @staticmethod
    def _check_floor(step: Fraction):
        def check(proc) -> str | None:
            rows = [tuple(Fraction(t) for t in line.split()) for line in proc.stdout.splitlines()]
            xs = [x for x, _ in rows]
            if xs != [k * step for k in range(len(xs))] or xs[-1] != 1:
                return "grid rows are not 0, step, ..., 1"
            prev = Fraction(0)
            for x, v in rows:
                # the envelope of x^2 is 0 at 0, nondecreasing, and never above x^2
                if v < prev or v > x * x or (x == 0 and v != 0):
                    return f"envelope value {v} at {x} breaks 0 <= monotone <= x^2"
                prev = v
            return None
        return check

    @staticmethod
    def _check_r0(d, a, b):
        closed = max(abs(d[(a[i], a[j])] - d[(b[i], b[j])]) for i in range(2) for j in range(2))

        def check(proc) -> str | None:
            value = Fraction(json.loads(proc.stdout)["value"])
            # At arity 2 the pairwise closed form is the exact supremum, and
            # the family holds every d(vi, vj), so the truncated r0 meets it.
            return None if value == closed else f"r0 {value} != closed form {closed}"
        return check

    @staticmethod
    def _check_ralpha(pts, arity: int):
        def check(proc) -> str | None:
            rows = json.loads(proc.stdout)["pairs"]
            r = {(tuple(x["a"]), tuple(x["b"])): Fraction(x["value"]) for x in rows}
            tuples = list(product(pts, repeat=arity))
            if sorted(r) != sorted(product(tuples, repeat=2)):
                return "ralpha does not list every pair of tuples"
            for (a, b), v in r.items():
                if not 0 <= v <= 1 or (a == b and v != 0) or r[(b, a)] != v:
                    return f"r({a},{b}) = {v} breaks range, reflexivity or symmetry"
            for a, b, c in product(tuples, repeat=3):
                if r[(a, c)] > r[(a, b)] + r[(b, c)]:
                    return f"triangle fails at {a},{b},{c}"
            return None
        return check

    def _check_fixpoint(self, q: Fraction):
        golden = (self.golden / "fixpoint_three_point_q1_10.json").read_text(encoding="utf-8")
        ref = json.loads(golden)["members_total"]  # at q = 1/10, same flags
        # distinct pairs of 1-, 2- and 3-tuples over three points
        most = sum(3 ** n * (3 ** n - 1) for n in (1, 2, 3))

        def check(proc) -> str | None:
            if q == Fraction(1, 10):
                return None if proc.stdout == golden else "differs from the q=1/10 golden"
            out = json.loads(proc.stdout)
            total = out["members_total"]
            if not out["closed"]:
                return "fixpoint not closed"
            if not (total >= ref if q < Fraction(1, 10) else total <= ref) or total > most:
                return f"{total} members at q={q}, {ref} at q=1/10: not monotone in q"
            sizes = out["stage_sizes"]
            if any(sizes[k][n] > sizes[k + 1][n] for k in range(len(sizes) - 1) for n in sizes[k]):
                return "stage sizes shrink"
            return None
        return check

    # -- defect repros ------------------------------------------------------

    def repros(self) -> list[tuple[str, str | None]]:
        """ROADMAP fix-first defects, typed as a user would.  Returns
        (command, failure or None).  They run outside the timed cycles."""
        out = []

        def members(q: str) -> tuple[int | None, subprocess.CompletedProcess]:
            p = self._mscott(["fixpoint", "data/three_point.ms", "--q", q, "--table-cap", "3",
                              "--json"])
            return (json.loads(p.stdout)["members_total"] if p.returncode == 0 else None), p

        base, _ = members("1/1000")
        for q in ("3/68719476737", f"1/{2 ** 70}"):
            got, p = members(q)
            fail = None
            if got is None:
                fail = f"exit {p.returncode}: {p.stderr.strip().splitlines()[-1:]}"
            elif base is None or got < base:
                fail = f"{got} members at q={q} but {base} at q=1/1000"
            out.append((f"fixpoint data/three_point.ms --q {q} --table-cap 3", fail))

        args = ["scott-rank", "data/three_point.ms", "--max-arity", "0", "--table-cap", "1",
                "--json"]
        p = self._mscott(args)
        fail = None
        if p.returncode == 0 and json.loads(p.stdout)["definitive"]:
            fail = "definitive rank with no table checked"
        out.append((" ".join(args), fail))

        args = ["eval", "data/three_point.ms", "latmin(" * 2000 + "d(v0, v1)" + ")" * 2000, "x,y"]
        p = self._mscott(args)
        fail = "Python traceback" if "Traceback" in p.stderr else None
        out.append(("eval data/three_point.ms <2000 nested latmin> x,y", fail))

        args = ["r0", "data/three_point.ms", "x", "y", "--family", "-5"]
        p = self._mscott(args)
        fail = "accepted" if p.returncode == 0 else None
        out.append((" ".join(args), fail))
        return out


WORKLOADS = {w.name: w for w in (CliMixWorkload, CorpusWorkload, WideWorkload, QueriesWorkload)}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliMixWorkload) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
