"""The checker must fail on a perturbed answer.

Run with ``python3 -m pytest perfbench/test_check.py``.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import (  # noqa: E402
    CheckFailure,
    ReplyError,
    batch_estimates,
    check_served,
    check_stretch,
    dijkstra_distances,
    dist_estimate,
)

# A weighted 4-cycle 0-1-2-3-0 plus a chord 0-2.
EDGES = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 0.5), (0, 2, 4.0)]
PAIRS = [(0, 2), (1, 3), (0, 1), (2, 0)]
TRUE = {(0, 2): 2.0, (1, 3): 1.5, (0, 1): 1.0, (2, 0): 2.0}


def test_dijkstra_matches_hand_computed_distances():
    assert dijkstra_distances(4, EDGES, PAIRS) == [TRUE[p] for p in PAIRS]


def test_exact_answers_pass():
    served = [TRUE[p] for p in PAIRS]
    check_served(PAIRS, served, lambda u, v: TRUE[(u, v)])
    assert check_stretch(PAIRS, served, [TRUE[p] for p in PAIRS], 0.25) == [1.0] * 4


def test_served_answer_off_by_one_ulp_fails():
    served = [TRUE[p] for p in PAIRS]
    served[1] = math.nextafter(served[1], math.inf)
    with pytest.raises(CheckFailure, match="1 of 4 served answers differ"):
        check_served(PAIRS, served, lambda u, v: TRUE[(u, v)])


def test_missing_answer_fails():
    with pytest.raises(CheckFailure):
        check_served(PAIRS, [TRUE[p] for p in PAIRS[:-1]], lambda u, v: TRUE[(u, v)])


@pytest.mark.parametrize("factor", [0.99, 1.2501])
def test_estimate_outside_stretch_bound_fails(factor):
    distances = [TRUE[p] for p in PAIRS]
    estimates = list(distances)
    estimates[0] *= factor
    with pytest.raises(CheckFailure, match="outside"):
        check_stretch(PAIRS, estimates, distances, 0.25)


def test_estimate_at_the_bound_passes():
    distances = [TRUE[p] for p in PAIRS]
    estimates = [1.25 * d for d in distances]
    check_stretch(PAIRS, estimates, distances, 0.25)


def test_reply_parsing_and_error_replies():
    assert dist_estimate(b'{"id":null,"ok":true,"op":"DIST","estimate":2.5}') == 2.5
    assert math.isinf(dist_estimate(b'{"ok":true,"estimate":null,"unreachable":true}'))
    assert batch_estimates(
        b'{"ok":true,"results":[{"ok":true,"estimate":1.0},{"ok":true,"estimate":3.0}]}'
    ) == [1.0, 3.0]
    with pytest.raises(ReplyError):
        dist_estimate(b'{"ok":false,"error":{"code":"unknown_vertex","message":"x"}}')
    with pytest.raises(ReplyError):
        batch_estimates(b'{"ok":true,"results":[{"ok":false,"error":{"code":"x"}}]}')
