"""Greedy matching used for budget-exhausted search completion.

When a budgeted search (Astrea-G) runs out of exploration cycles it must
still emit *some* complete matching -- the hardware returns its
best-so-far, greedily completed.  The greedy rule: repeatedly commit the
globally cheapest available option (event-event pair or event-boundary).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.matching.exact import MatchingSolution


def greedy_matching(
    pair_weights: np.ndarray,
    boundary_weights: np.ndarray,
    events: Optional[Sequence[int]] = None,
    allowed_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> MatchingSolution:
    """Greedily match ``events`` (default: all) by ascending cost.

    Args:
        pair_weights: ``(n, n)`` pairing-cost matrix.
        boundary_weights: Length-``n`` boundary costs.
        events: Subset of event indices to match (default all).
        allowed_pairs: If given, only these (i, j) pairs may be matched to
            each other (pruned search graphs); boundary is always allowed.

    Returns:
        A complete (not necessarily optimal) :class:`MatchingSolution`.
    """
    n = len(boundary_weights)
    active = sorted(events) if events is not None else list(range(n))
    active_set = set(active)
    if allowed_pairs is None:
        candidate_pairs = [
            (i, j)
            for idx, i in enumerate(active)
            for j in active[idx + 1 :]
        ]
    else:
        candidate_pairs = [
            (min(i, j), max(i, j))
            for i, j in allowed_pairs
            if i in active_set and j in active_set and i != j
        ]
    rows = np.asarray(pair_weights, dtype=np.float64).tolist()
    bounds = np.asarray(boundary_weights, dtype=np.float64).tolist()
    options = [(rows[i][j], i, j) for i, j in candidate_pairs]
    options += [(bounds[i], i, -1) for i in active]
    options.sort()

    solution = MatchingSolution()
    unmatched = set(active)
    # Every event has a boundary option, so the scan matches them all.
    for weight, i, j in options:
        if not unmatched:
            break
        if i not in unmatched or (j >= 0 and j not in unmatched):
            continue
        if j < 0:
            solution.boundary.append(i)
            unmatched.discard(i)
        else:
            solution.pairs.append((i, j))
            unmatched.discard(i)
            unmatched.discard(j)
        solution.total_weight += weight
    solution.pairs.sort()
    solution.boundary.sort()
    return solution
