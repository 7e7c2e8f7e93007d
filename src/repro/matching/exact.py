"""Exact minimum-weight matching with a boundary option.

The matching problem the decoders solve: every detection event must be
paired either with another event (cost = shortest-path weight between
them) or with the boundary (cost = its boundary distance).  The minimum
total cost identifies the maximum-likelihood error.

Two exact engines:

* **bitmask dynamic programming** for small event sets -- O(2^n * n),
  used for everything Astrea-sized (n <= 12),
* **blossom** (networkx ``max_weight_matching``) beyond, via the standard
  boundary-duplication reduction to perfect matching.

Also provides :func:`enumerate_matchings` (the brute-force search space of
the Astrea hardware: all partial pairings with boundary fallbacks, counted
by the involution numbers) for tests and for the search-cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class MatchingSolution:
    """A complete pairing of detection events.

    Attributes:
        pairs: Matched event pairs as (i, j) local indices, i < j.
        boundary: Local indices matched to the boundary.
        total_weight: Sum of pair + boundary costs.
    """

    pairs: List[Tuple[int, int]] = field(default_factory=list)
    boundary: List[int] = field(default_factory=list)
    total_weight: float = 0.0

    def covers(self, n_events: int) -> bool:
        """True when every event index in range is matched exactly once."""
        seen = sorted([i for pair in self.pairs for i in pair] + list(self.boundary))
        return seen == list(range(n_events))


#: Events above this count switch from bitmask DP to blossom.
DP_EVENT_LIMIT = 12


def solve_exact_matching(
    pair_weights: np.ndarray,
    boundary_weights: np.ndarray,
    dp_limit: int = DP_EVENT_LIMIT,
) -> MatchingSolution:
    """Exact minimum-weight matching of ``n`` events with boundary option.

    Args:
        pair_weights: ``(n, n)`` symmetric matrix of pairing costs.
        boundary_weights: Length-``n`` boundary costs.
        dp_limit: Largest ``n`` handled by the DP engine.

    Returns:
        The optimal :class:`MatchingSolution`.
    """
    n = len(boundary_weights)
    if n == 0:
        return MatchingSolution()
    if n <= dp_limit:
        return _solve_bitmask_dp(pair_weights, boundary_weights)
    return _solve_blossom(pair_weights, boundary_weights)


def _solve_bitmask_dp(
    pair_weights: np.ndarray, boundary_weights: np.ndarray
) -> MatchingSolution:
    """O(2^n * n) DP over subsets of unmatched events."""
    n = len(boundary_weights)
    full = (1 << n) - 1
    rows = np.asarray(pair_weights, dtype=np.float64).tolist()
    bounds = np.asarray(boundary_weights, dtype=np.float64).tolist()
    cost = [0.0] * (full + 1)
    # choice[mask]: the bit of the lowest set event's partner, 0 = boundary.
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        lowest = low.bit_length() - 1
        # Option 1: match the lowest set event to the boundary.
        best = cost[rest] + bounds[lowest]
        best_bit = 0
        # Option 2: match it with any other event in the mask.
        row = rows[lowest]
        other = rest
        while other:
            bit = other & -other
            other ^= bit
            candidate = cost[rest ^ bit] + row[bit.bit_length() - 1]
            if candidate < best:
                best = candidate
                best_bit = bit
        cost[mask] = best
        choice[mask] = best_bit
    solution = MatchingSolution(total_weight=cost[full])
    mask = full
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        partner_bit = choice[mask]
        if partner_bit:
            solution.pairs.append((i, partner_bit.bit_length() - 1))
        else:
            solution.boundary.append(i)
        mask ^= low | partner_bit
    solution.pairs.sort()
    solution.boundary.sort()
    return solution


def _solve_blossom(
    pair_weights: np.ndarray, boundary_weights: np.ndarray
) -> MatchingSolution:
    """Boundary-duplication reduction to perfect matching + blossom.

    Nodes ``0..n-1`` are events; ``n..2n-1`` are per-event boundary
    copies.  Event-event edges cost the pairing weight, each event
    connects to its own copy at its boundary cost, and copies form a
    zero-cost clique so unused copies can pair off.  Maximum-weight
    matching on negated costs with ``maxcardinality=True`` is then exactly
    the minimum-cost perfect matching.
    """
    import networkx as nx

    n = len(boundary_weights)
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * n))
    for i in range(n):
        graph.add_edge(i, n + i, weight=-float(boundary_weights[i]))
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=-float(pair_weights[i, j]))
            graph.add_edge(n + i, n + j, weight=0.0)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    solution = MatchingSolution()
    for a, b in mate:
        a, b = min(a, b), max(a, b)
        if b < n:
            solution.pairs.append((a, b))
            solution.total_weight += float(pair_weights[a, b])
        elif a < n <= b:
            if b != n + a:
                raise AssertionError("event matched to a foreign boundary copy")
            solution.boundary.append(a)
            solution.total_weight += float(boundary_weights[a])
        # copy-copy matches cost nothing and carry no correction
    solution.pairs.sort()
    solution.boundary.sort()
    if not solution.covers(n):
        raise AssertionError("blossom reduction produced an incomplete matching")
    return solution


def enumerate_matchings(n: int) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]]:
    """Every complete matching of ``n`` events with boundary fallback.

    Yields ``(pairs, boundary)`` tuples.  The number of yields is the
    involution number I(n) -- Astrea's brute-force search space (945
    perfect matchings within the 9496 involutions at HW = 10).
    """

    def recurse(unmatched: Tuple[int, ...]):
        if not unmatched:
            yield ((), ())
            return
        first, rest = unmatched[0], unmatched[1:]
        for pairs, boundary in recurse(rest):
            yield pairs, (first,) + boundary
        for idx in range(len(rest)):
            partner = rest[idx]
            remaining = rest[:idx] + rest[idx + 1 :]
            for pairs, boundary in recurse(remaining):
                yield ((first, partner),) + pairs, boundary

    return recurse(tuple(range(n)))


@lru_cache(maxsize=None)
def involution_count(n: int) -> int:
    """Number of complete matchings-with-boundary of ``n`` events.

    Satisfies I(n) = I(n-1) + (n-1) I(n-2); I(10) = 9496, containing the
    945 boundary-free perfect matchings the paper quotes for HW = 10.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return 1
    return involution_count(n - 1) + (n - 1) * involution_count(n - 2)


def brute_force_minimum(
    pair_weights: np.ndarray, boundary_weights: np.ndarray
) -> MatchingSolution:
    """Reference O(I(n)) solver used to validate the fast engines."""
    n = len(boundary_weights)
    best: Optional[MatchingSolution] = None
    for pairs, boundary in enumerate_matchings(n):
        weight = sum(float(pair_weights[i, j]) for i, j in pairs) + sum(
            float(boundary_weights[i]) for i in boundary
        )
        if best is None or weight < best.total_weight:
            best = MatchingSolution(
                pairs=sorted(pairs), boundary=sorted(boundary), total_weight=weight
            )
    return best if best is not None else MatchingSolution()
