"""A fixed piece of pure-Python work that measures the machine's speed.

The machine the baseline was taken on (2 vCPU x86-64 VM, Python 3.11.7)
drifts in speed by tens of percent within seconds, with CPU time equal to
wall time.  run.py times ``reference_work()`` between every two iterations
and divides each iteration's wall time by it, which cancels most of the
drift while a change to the lab leaves the reference untouched: it shares no
code with the lab.

The work is a mix of what an interpreter-bound program spends its time on:
hashing and comparing nested frozen dataclasses in a set, a JSON round trip,
a recursive search over tuples, regular expressions and string building,
sorting and dict building.  The mix matters.  Set probes alone slowed down
only about two thirds as much as the lab's workloads (in log terms) when the
host got busy; the mix slows down as much as they do.  The timed part runs
with the collector off and frees what it allocates, so the lab's heap cannot
change its cost.
"""

from __future__ import annotations

import functools
import gc
import json
import re
import time
from dataclasses import dataclass

# reported times are at the speed where reference_work() takes this long; it
# took 24-40 ms on the baseline machine, depending on how busy the host was
REFERENCE_WORK_S = 0.030

_WORD = re.compile(r"word(\d+)=(\d+);")


@dataclass(frozen=True)
class _Cell:
    left: object
    right: object


@functools.cache
def _data() -> tuple:
    chains = []
    for i in range(8000):
        cell = _Cell(i % 97, "k%d" % (i % 13))
        for d in range(6):
            cell = _Cell(cell, 7 * i + d)
        chains.append(cell)
    # equal copies in scattered order: each probe hashes and compares a whole
    # chain, and successive probes touch distant memory
    probes = [_Cell(chains[j * 7919 % 8000].left, chains[j * 7919 % 8000].right)
              for j in range(3000)]
    doc = {"cells": [{"id": i, "name": "cell-%d" % i, "tags": ["a", "b", str(i % 7)],
                      "w": i / 3} for i in range(600)]}
    text = " ".join("word%d=%d;" % (i, i * 7) for i in range(3000))
    return frozenset(chains), probes, doc, text


def _queens(n: int, cols: tuple = ()) -> int:
    row = len(cols)
    if row == n:
        return 1
    return sum(_queens(n, cols + (c,)) for c in range(n)
               if all(c != cc and abs(c - cc) != row - r for r, cc in enumerate(cols)))


def reference_work() -> float:
    """Wall time of one fixed run of the mix."""
    chains, probes, doc, text = _data()
    gc.disable()
    try:
        start = time.perf_counter()
        hits = sum(1 for p in probes if p in chains)
        doc_back = json.loads(json.dumps(doc))
        solutions = _queens(7)
        total = sum(int(v) for _, v in _WORD.findall(text))
        joined = "|".join(f"{k}:{v}" for k, v in enumerate(text.split(";")[:2000]))
        rows = sorted(((i * 7919) % 5003, str(i)) for i in range(8000))
        by_key = {k: v for k, v in rows}
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if (hits, solutions, total, len(by_key)) != (len(probes), 40, 31489500, 5003) \
            or doc_back != doc or not joined.startswith("0:word0=0|"):
        raise AssertionError("reference work computed a wrong result")
    return elapsed
