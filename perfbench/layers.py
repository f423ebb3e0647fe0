"""Per-layer timings of the program's public calls, taken from outside.

Each function times one module's public entry points in this process,
on the labels file a run built and served, and returns per-call
figures.  Only the traced run calls these.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

Pair = Tuple[int, int]


def _per_call_us(fn, args: Sequence, rounds: int = 3) -> float:
    """Median over *rounds* of the mean per-call time of ``fn(*a)`` for
    every ``a`` in *args*, in microseconds."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - t0) / len(args) * 1e6)
    return statistics.median(samples)


def binfmt_layer(path: Path, vertices: Sequence[int]) -> Dict[str, float]:
    """``BinaryLabelReader`` open and ``get_flat`` decode."""
    from repro.core.binfmt import BinaryLabelReader

    opens = []
    for _ in range(50):
        t0 = time.perf_counter()
        reader = BinaryLabelReader(path)
        opens.append(time.perf_counter() - t0)
        reader.close()
    reader = BinaryLabelReader(path)
    try:
        decode = _per_call_us(reader.get_flat, [(v,) for v in vertices])
    finally:
        reader.close()
    return {"binfmt.open_ms": statistics.median(opens) * 1e3, "binfmt.decode_us": decode}


def store_layer(path: Path, pairs: Sequence[Pair]) -> Dict[str, float]:
    """``store.estimate`` on the store class the server loads for *path*,
    with its decode cache warmed by one pass over *pairs*."""
    from repro.serve.store import ShardedLabelStore

    store = ShardedLabelStore.load(path)
    for u, v in pairs:
        store.estimate(u, v)
    return {"store.estimate_us": _per_call_us(store.estimate, pairs)}


def protocol_layer(dist_lines: Sequence[bytes], batch_lines: Sequence[bytes],
                   dist_replies: Sequence[bytes], batch_replies: Sequence[bytes]) -> Dict[str, float]:
    """``parse_request`` on request lines and ``encode_response`` on the
    reply objects the server sent for them."""
    from repro.serve.protocol import encode_response, parse_request

    dist_objs = [(json.loads(r),) for r in dist_replies]
    batch_objs = [(json.loads(r),) for r in batch_replies]
    return {
        "protocol.parse_dist_us": _per_call_us(parse_request, [(x,) for x in dist_lines]),
        "protocol.encode_dist_us": _per_call_us(encode_response, dist_objs),
        "protocol.parse_batch_us": _per_call_us(parse_request, [(x,) for x in batch_lines]),
        "protocol.encode_batch_us": _per_call_us(encode_response, batch_objs),
    }
