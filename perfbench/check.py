"""Correctness checker, independent of the program under test.

Two checks, both run after a phase, never while it is timed:

* :func:`check_served` — every served answer equals the offline
  estimate for the same pair, exactly (the wire carries floats as
  ``repr``, so equal values round-trip bit for bit).
* :func:`check_stretch` — every sampled pair satisfies
  ``d <= estimate <= (1 + eps) * d``, where ``d`` comes from
  :func:`dijkstra_distances`: ``scipy.sparse.csgraph`` on the
  benchmark's own edge list, not the program's graph code.

A failed check raises :class:`CheckFailure` naming the first bad pairs.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]
Edge = Tuple[int, int, float]

#: Relative slack for float rounding in the stretch inequalities.
REL_TOL = 1e-9


class CheckFailure(AssertionError):
    pass


class ReplyError(Exception):
    """A reply with ``ok: false`` — a failed operation, not a wrong answer."""


def dist_estimate(line: bytes) -> float:
    """The estimate of one DIST reply line."""
    reply = json.loads(line)
    if not reply.get("ok"):
        raise ReplyError(reply.get("error"))
    value = reply.get("estimate")
    return float("inf") if value is None else float(value)


def batch_estimates(line: bytes) -> List[float]:
    """The estimates of one BATCH reply line, in pair order."""
    reply = json.loads(line)
    if not reply.get("ok"):
        raise ReplyError(reply.get("error"))
    out = []
    for item in reply["results"]:
        if not item.get("ok"):
            raise ReplyError(item.get("error"))
        value = item.get("estimate")
        out.append(float("inf") if value is None else float(value))
    return out


def check_served(
    pairs: Sequence[Pair],
    served: Sequence[float],
    offline: Callable[[int, int], float],
) -> None:
    """Every served estimate must equal ``offline(u, v)`` exactly."""
    if len(pairs) != len(served):
        raise CheckFailure(f"{len(served)} answers for {len(pairs)} pairs")
    memo: Dict[Pair, float] = {}
    bad = []
    for pair, value in zip(pairs, served):
        want = memo.get(pair)
        if want is None:
            want = memo[pair] = offline(*pair)
        if value != want:
            bad.append((pair, value, want))
    if bad:
        shown = ", ".join(f"{p}: served {s!r} != offline {w!r}" for p, s, w in bad[:3])
        raise CheckFailure(f"{len(bad)} of {len(pairs)} served answers differ: {shown}")


def dijkstra_distances(n: int, edges: Iterable[Edge], pairs: Sequence[Pair]) -> List[float]:
    """Exact distances for *pairs* on the undirected graph *edges*."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    edges = list(edges)
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    ws = np.array([e[2] for e in edges], dtype=np.float64)
    graph = coo_matrix(
        (np.concatenate([ws, ws]), (np.concatenate([us, vs]), np.concatenate([vs, us]))),
        shape=(n, n),
    ).tocsr()
    sources = sorted({u for u, _ in pairs})
    rows = dijkstra(graph, directed=False, indices=sources)
    row_of = {s: i for i, s in enumerate(sources)}
    return [float(rows[row_of[u], v]) for u, v in pairs]


def check_stretch(
    pairs: Sequence[Pair],
    estimates: Sequence[float],
    distances: Sequence[float],
    epsilon: float,
) -> List[float]:
    """``d <= estimate <= (1 + eps) d`` for every pair; returns the
    stretches ``estimate / d``."""
    bad = []
    stretches = []
    for pair, est, d in zip(pairs, estimates, distances):
        if not d > 0:
            raise CheckFailure(f"pair {pair}: distance {d!r} is not positive")
        if est < d * (1 - REL_TOL) or est > (1 + epsilon) * d * (1 + REL_TOL):
            bad.append((pair, est, d))
        stretches.append(est / d)
    if bad:
        shown = ", ".join(f"{p}: estimate {e!r}, distance {d!r}" for p, e, d in bad[:3])
        raise CheckFailure(
            f"{len(bad)} of {len(pairs)} pairs outside [d, (1+{epsilon})d]: {shown}"
        )
    return stretches
