"""Workload definitions: graph families, sizes, pair distributions, rates.

Everything a run feeds the program is made here: the edge list (own
generators, written in the ``u v w`` format that ``repro`` reads) and
the reweight sequence from fixed per-workload seeds, the query pairs
from the run's ``--seed``.  The same seed gives the same inputs.  The
program under test only ever sees the generated files and the requests
on the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

Edge = Tuple[int, int, float]
Pair = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    family: str               # "delaunay" or "ktree3"
    n: int
    pairs: str                # "uniform" or "zipf"
    pair_cache: int           # server --cache (pairs); 0 = off
    setups: int               # builds per run; setup_s is their median
    latency_rate: int         # q/s of the open-loop DIST reads
    latency_s: float          # seconds of fixed-rate DIST blocks
    batches: int              # BATCH-64 requests of the closed-loop phase
    updates: int              # reweights after the first (warm-up) one
    ladder: Tuple[int, ...]   # traced run: open-loop DIST rates (q/s)


#: The paper's stretch parameter for every build.
EPSILON = 0.25
#: The graph, the reweight sequence and which vertices are popular are
#: fixed per workload; the run's --seed draws the query pairs.  Label
#: sizes, update costs and the cost of the hottest labels vary
#: several-fold between graph instances, edges and vertices, so seeding
#: them per run would swamp any program change.
GRAPH_SEED = 1
UPDATE_SEED = 7
#: Exponent of the Zipf pair distribution.
ZIPF_S = 1.1
#: DIST reads after each reweight.
READS_PER_UPDATE = 20
#: Traced run: DIST requests per rung of the rate ladder.
RUNG_REQUESTS = 1500
#: p99 latency limit for ``loadgen.rate_at_slo_qps`` (microseconds).  It
#: sits above the few-millisecond scheduling stalls of a shared
#: 2-vCPU machine and far below the queueing delay of an overloaded
#: rung, so a rung fails for lack of capacity, not for one stall.
SLO_P99_US = 25000.0
#: A rung whose sends ran later than this (median, ms) is the
#: generator's limit, not the server's, and does not count.
MAX_LATE_MS = 1.0
#: Pairs per BATCH request.
BATCH_PAIRS = 64
#: Seeded sample pairs checked against Dijkstra for the stretch bound.
STRETCH_SAMPLE = 400


def ladder(start: int, rungs: int, step: float = 1.05) -> Tuple[int, ...]:
    """Fixed open-loop rates, each *step* times the one below."""
    return tuple(round(start * step ** k) for k in range(rungs))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planar-uniform",
            family="delaunay",
            n=5000,
            pairs="uniform",
            pair_cache=0,
            setups=2,
            latency_rate=1500,
            latency_s=8.0,
            batches=2000,
            updates=40,
            ladder=ladder(1500, 27),
        ),
        Workload(
            name="ktree-zipf",
            family="ktree3",
            n=2000,
            pairs="zipf",
            pair_cache=8192,
            setups=3,
            latency_rate=3000,
            latency_s=10.0,
            batches=6000,
            updates=300,
            ladder=ladder(2500, 27),
        ),
    )
}


# -- graphs -----------------------------------------------------------------

def delaunay_edges(n: int, seed: int) -> List[Edge]:
    """Delaunay triangulation of *n* seeded uniform points in the unit
    square, weighted by Euclidean length.  Planar and connected."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    simplices = Delaunay(points).simplices
    pairs = set()
    for a, b, c in simplices.tolist():
        for u, v in ((a, b), (b, c), (a, c)):
            pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        w = float(np.hypot(*(points[u] - points[v])))
        edges.append((u, v, w))
    return edges


def partial_ktree_edges(n: int, seed: int, k: int = 3, keep: float = 0.7) -> List[Edge]:
    """A partial *k*-tree: grow a k-tree by attaching each new vertex to
    a random k-clique, then keep each non-spanning edge with probability
    *keep*.  Treewidth at most k; connected by construction (every new
    vertex keeps its edge to the clique's first member)."""
    rng = random.Random(seed)
    edges = set()
    base = list(range(k + 1))
    for i in base:
        for j in base[i + 1:]:
            edges.add((i, j))
    cliques = [tuple(c for c in base if c != x) for x in base]
    spanning = {(0, j) for j in range(1, k + 1)}
    for v in range(k + 1, n):
        clique = cliques[rng.randrange(len(cliques))]
        for i, c in enumerate(clique):
            edges.add((c, v))
            if i == 0:
                spanning.add((c, v))
        for x in clique:
            cliques.append(tuple(c for c in clique if c != x) + (v,))
    kept = sorted(e for e in edges if e in spanning or rng.random() < keep)
    return [(u, v, round(rng.uniform(1.0, 10.0), 6)) for u, v in kept]


def make_edges(workload: Workload) -> List[Edge]:
    if workload.family == "delaunay":
        return delaunay_edges(workload.n, GRAPH_SEED)
    if workload.family == "ktree3":
        return partial_ktree_edges(workload.n, GRAPH_SEED)
    raise ValueError(f"unknown family {workload.family!r}")


def write_edges(edges: List[Edge], path: Path) -> None:
    with open(path, "w") as handle:
        for u, v, w in edges:
            handle.write(f"{u} {v} {w!r}\n")


# -- pairs ------------------------------------------------------------------

class PairSampler:
    """Seeded query pairs, never a self-pair, each in the order drawn.

    ``uniform`` draws both ends uniformly.  ``zipf`` ranks the vertices
    by a seeded permutation and draws each end independently with
    probability proportional to ``rank ** -ZIPF_S``, so a few pairs
    recur often (what a pair cache is for).

    Which vertices are popular is part of the workload, not of the
    traffic: the Zipf ranking comes from ``GRAPH_SEED`` and *seed* draws
    the pairs.
    """

    def __init__(self, n: int, kind: str, seed) -> None:
        self.n = n
        self.kind = kind
        self.rng = np.random.default_rng(seed)
        if kind == "zipf":
            weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
            self.cdf = np.cumsum(weights / weights.sum())
            self.perm = np.random.default_rng(GRAPH_SEED).permutation(n)
        elif kind != "uniform":
            raise ValueError(f"unknown pair distribution {kind!r}")

    def _ends(self, count: int) -> np.ndarray:
        if self.kind == "uniform":
            return self.rng.integers(0, self.n, size=count)
        ranks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return self.perm[np.minimum(ranks, self.n - 1)]

    def sample(self, count: int) -> List[Pair]:
        out: List[Pair] = []
        while len(out) < count:
            need = count - len(out)
            us, vs = self._ends(need), self._ends(need)
            out.extend((u, v) for u, v in zip(us.tolist(), vs.tolist()) if u != v)
        return out


def reweights(edges: List[Edge], count: int, seed: int) -> List[Tuple[int, int, float]]:
    """A fixed seeded sequence of *count* edge reweights: each picks a
    random edge and scales its current weight by a factor in [0.5, 2]."""
    rng = random.Random(seed)
    weight = {(u, v): w for u, v, w in edges}
    keys = sorted(weight)
    out = []
    for _ in range(count):
        key = keys[rng.randrange(len(keys))]
        new = round(weight[key] * rng.uniform(0.5, 2.0), 9)
        if new == weight[key] or new <= 0:
            new = weight[key] + 0.5
        weight[key] = new
        out.append((key[0], key[1], new))
    return out
