#!/usr/bin/env python3
"""Where the time of each operation went, from a traced run's spans.

    python3 perfbench/shares.py .perfbench_work/trace-cli-mix-seed1.npz

For every operation of the cycle, prints its mean wall time when traced
(for cli-mix: the whole child process, start-up and import included) and,
per layer, the share of that time spent inside the layer (outermost spans
of the layer, children included) and in the layer's own code (self time).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

from tracer import read_trace


def shares(path: Path) -> list[str]:
    meta, spans = read_trace(path)
    names = meta["names"]
    labels = meta["extra"]["ops"]
    layer_of = [n.split(".", 1)[0] for n in names]
    ids = spans["id"].tolist()
    parent = dict(zip(ids, spans["parent"].tolist()))
    layer = dict(zip(ids, (layer_of[k] for k in spans["name"].tolist())))
    dur = dict(zip(ids, (spans["end"] - spans["start"]).tolist()))
    child_time: dict[int, float] = defaultdict(float)
    for sid, p in parent.items():
        if p >= 0:
            child_time[p] += dur[sid]

    inside: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    seen_ops: dict[str, set] = defaultdict(set)
    for sid, op in zip(ids, spans["op"].tolist()):
        if op < 0:
            continue
        label = labels[op % len(labels)]
        seen_ops[label].add(op)
        own[label][layer[sid]] += dur[sid] - child_time[sid]
        p = parent[sid]
        while p >= 0 and layer[p] != layer[sid]:
            p = parent[p]
        if p < 0:
            inside[label][layer[sid]] += dur[sid]

    walls = meta["extra"]["op_seconds"]
    out = []
    for label in labels:
        if not seen_ops[label]:
            continue
        n = len(seen_ops[label])
        total = sum(walls[op] for op in seen_ops[label])
        parts = ", ".join(
            f"{lay} {inside[label][lay] / total:.0%} (self {own[label][lay] / total:.0%})"
            for lay in sorted(inside[label], key=lambda k: -inside[label][k]))
        out.append(f"{total / n:8.4f} s  {label}\n           {parts}")
    return out


if __name__ == "__main__":
    for line in shares(Path(sys.argv[1])):
        print(line)
