"""Build child: edge list -> decomposition -> labels -> ``/2`` pack.

Run as its own process (``python3 perfbench/build_labels.py EDGES OUT
EPSILON``) so that its peak resident memory is the build's alone.  It
times each public call from outside and prints one JSON object:

    {"read_s": ..., "decomposition_s": ..., "labeling_s": ..., "pack_s": ...,
     "nodes": ..., "max_paths_per_node": ..., "entries": ..., "words": ...,
     "bytes": ...}
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    edges_path, out_path, epsilon = argv[1], argv[2], float(argv[3])
    from repro.core.binfmt import pack_labeling
    from repro.core.decomposition import build_decomposition
    from repro.core.engines import auto_engine
    from repro.core.labeling import build_labeling
    from repro.graphs.io import read_edge_list

    t0 = time.perf_counter()
    graph = read_edge_list(edges_path)
    t1 = time.perf_counter()
    tree = build_decomposition(graph, auto_engine(graph, seed=0))
    t2 = time.perf_counter()
    labeling = build_labeling(graph, tree, epsilon=epsilon)
    t3 = time.perf_counter()
    blob = pack_labeling(labeling)
    Path(out_path).write_bytes(blob)
    t4 = time.perf_counter()
    entries = sum(len(label.entries) for label in labeling.labels.values())
    words = sum(label.words for label in labeling.labels.values())
    print(json.dumps({
        "read_s": t1 - t0,
        "decomposition_s": t2 - t1,
        "labeling_s": t3 - t2,
        "pack_s": t4 - t3,
        "nodes": tree.num_nodes,
        "max_paths_per_node": tree.max_paths_per_node,
        "entries": entries,
        "words": words,
        "bytes": len(blob),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
