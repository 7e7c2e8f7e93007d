"""Astrea-G: pruned, budgeted, greedy near-exhaustive matching search.

Astrea-G [Vittal et al., ISCA'23] extends Astrea beyond HW = 10 by
searching the *complete* MWPM graph over the detection events (edges =
shortest-path weights) after pruning edges whose error-chain probability
falls below the target logical error rate, then running a greedy-ordered
near-exhaustive search.  It always returns a correction in real time; its
accuracy degrades when pruning fails to shrink the search space -- the
43x LER gap to MWPM at d = 13 that motivates Promatch (Figure 1(c)).

Model implemented here:

* **pruning**: event pairs with chain probability ``exp(-w) <
  prune_probability`` may not be matched to each other (boundary matches
  are always available as a fallback),
* **search**: depth-first branch-and-bound, expanding cheapest partners
  first, seeded with a greedy solution as the incumbent; every partner
  option examined costs one search unit,
* **budget**: ``budget_cycles * AG_OPTIONS_PER_CYCLE`` options; when
  exhausted the incumbent (greedy-completed) is returned -- exactly the
  real-time-but-inexact behaviour the paper describes.

:class:`AstreaGDecoder` runs the search as a flat loop over a bitmask of
matched events, with each node's options sorted once per shot.  A bulk
charge is exactly the per-option count: the first option that fails the
bound charges itself and every unmatched option after it, and a child
whose cheapest option fails is charged its unmatched options unvisited.
:class:`ReferenceAstreaGDecoder` keeps the recursive per-option search as
the equivalence oracle; the two return identical results.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.decoders.base import DecodeResult, Decoder, matching_observable_mask
from repro.graph.decoding_graph import DecodingGraph
from repro.hardware.latency import AG_OPTIONS_PER_CYCLE, BUDGET_CYCLES
from repro.matching.exact import MatchingSolution
from repro.matching.greedy import greedy_matching


class _BudgetExhausted(Exception):
    """Raised internally when the search budget runs out."""


class AstreaGDecoder(Decoder):
    """Budgeted greedy near-exhaustive search on the pruned MWPM graph."""

    name = "Astrea-G"

    def __init__(
        self,
        graph: DecodingGraph,
        prune_probability: float = 1e-15,
        budget_cycles: float = BUDGET_CYCLES,
        options_per_cycle: int = AG_OPTIONS_PER_CYCLE,
    ) -> None:
        super().__init__(graph)
        self.prune_probability = prune_probability
        self.budget_cycles = budget_cycles
        self.options_per_cycle = options_per_cycle
        self.max_options = int(budget_cycles * options_per_cycle)
        self.prune_weight = -math.log(prune_probability)

    def decode(self, events: Sequence[int]) -> DecodeResult:
        events = tuple(events)
        if not events:
            return DecodeResult(success=True, observable_mask=0, cycles=1)
        pair_w, boundary_w = self.graph.event_distance_matrix(events)
        admissible = pair_w <= self.prune_weight
        np.fill_diagonal(admissible, False)
        allowed: List[List[int]] = [row.nonzero()[0].tolist() for row in admissible]
        allowed_pairs = [(i, j) for i, row in enumerate(allowed) for j in row if j > i]
        incumbent = greedy_matching(
            pair_w, boundary_w, allowed_pairs=allowed_pairs
        )
        solution, options_used = self._search(
            pair_w, boundary_w, allowed, incumbent
        )
        cycles = min(self.budget_cycles, max(1.0, options_used / self.options_per_cycle))
        pairs = [(events[i], events[j]) for i, j in solution.pairs]
        boundary = [events[i] for i in solution.boundary]
        return DecodeResult(
            success=True,
            observable_mask=matching_observable_mask(self.graph, pairs, boundary),
            weight=solution.total_weight,
            cycles=cycles,
            pairs=pairs,
            boundary=boundary,
        )

    def _search(
        self,
        pair_w: np.ndarray,
        boundary_w: np.ndarray,
        allowed: List[List[int]],
        incumbent: MatchingSolution,
    ) -> Tuple[MatchingSolution, int]:
        """Flat branch-and-bound; returns the best matching and options used.

        The matched set is a bitmask, and the node being expanded is
        always its lowest clear bit, so every event below it is matched:
        its options are the admissible partners ``j > i`` plus the
        boundary ``(w, -1)``, sorted by ``(weight, j)`` once per shot.
        ``options_used`` is capped at ``max_options + 1`` on exhaustion.
        """
        n = len(allowed)
        rows = pair_w.tolist()
        bounds = boundary_w.tolist()
        # Per node, its options as parallel lists of weight and partner
        # bit (0 for the boundary, which is never "matched");
        # suffix[i][k] is the bitmask of the partners at positions >= k,
        # boundary_at[i] the boundary's position.
        option_w: List[List[float]] = []
        option_bit: List[List[int]] = []
        suffix: List[List[int]] = []
        boundary_at: List[int] = []
        for i in range(n):
            row = rows[i]
            options = sorted(
                [(row[j], j) for j in allowed[i] if j > i] + [(bounds[i], -1)]
            )
            bits = [1 << j if j >= 0 else 0 for _w, j in options]
            masks = bits[:]
            for k in range(len(masks) - 2, -1, -1):
                masks[k] |= masks[k + 1]
            option_w.append([w for w, _j in options])
            option_bit.append(bits)
            suffix.append(masks)
            boundary_at.append(bits.index(0))

        max_options = self.max_options
        full = (1 << n) - 1
        best = incumbent
        best_weight = incumbent.total_weight
        used = 0
        matched = 0
        # One frame per taken option: (node, option position, weight
        # before it, matched set before it).
        stack: List[Tuple[int, int, float, int]] = []
        i, k, weight = 0, 0, 0.0
        while True:
            ws = option_w[i]
            bits = option_bit[i]
            node_bit = 1 << i
            for k in range(k, len(ws)):
                bit = bits[k]
                if matched & bit:
                    continue
                new_weight = weight + ws[k]
                if new_weight >= best_weight:
                    # Options are ascending, so this one and every
                    # unmatched one after it fail the bound.
                    used += (suffix[i][k] & ~matched).bit_count() + (
                        boundary_at[i] >= k
                    )
                    break
                used += 1
                if used > max_options:
                    break
                taken = matched | node_bit | bit
                if taken == full:
                    # Complete, and under the bound: the new best.
                    best_weight = new_weight
                    best = self._leaf(stack + [(i, k)], option_bit, new_weight)
                    continue
                # The child node is the lowest unmatched event.
                child = (~taken & (taken + 1)).bit_length() - 1
                if new_weight + option_w[child][0] >= best_weight:
                    # Not even the child's cheapest option passes the
                    # bound: charge its unmatched options, as if visited.
                    used += (suffix[child][0] & ~taken).bit_count() + 1
                    if used > max_options:
                        break
                    continue
                stack.append((i, k, weight, matched))
                i, k, weight, matched = child, -1, new_weight, taken
                break
            if used > max_options:
                return best, max_options + 1
            if k < 0:
                k = 0  # descended into the child
                continue
            if not stack:
                return best, used
            i, k, weight, matched = stack.pop()
            k += 1

    @staticmethod
    def _leaf(
        frames: List[Tuple[int, ...]], option_bit: List[List[int]], weight: float
    ) -> MatchingSolution:
        """The complete matching taken by ``(node, option position, ...)``."""
        pairs = []
        boundary = []
        for frame in frames:
            node, partner_bit = frame[0], option_bit[frame[0]][frame[1]]
            if partner_bit:
                pairs.append((node, partner_bit.bit_length() - 1))
            else:
                boundary.append(node)
        return MatchingSolution(
            pairs=sorted(pairs), boundary=sorted(boundary), total_weight=weight
        )


class ReferenceAstreaGDecoder(AstreaGDecoder):
    """The retained recursive per-option search, as the equivalence oracle.

    Re-sorts the unmatched partners at every visit and charges each option
    one by one.  Results are element-wise identical to
    :class:`AstreaGDecoder`; only the speed differs.
    """

    name = "Astrea-G-reference"

    def _search(
        self,
        pair_w: np.ndarray,
        boundary_w: np.ndarray,
        allowed: List[List[int]],
        incumbent: MatchingSolution,
    ) -> Tuple[MatchingSolution, int]:
        search = _BranchAndBound(
            pair_w, boundary_w, allowed, incumbent, self.max_options
        )
        return search.run()


class _BranchAndBound:
    """DFS branch-and-bound over matchings of the pruned event graph."""

    def __init__(
        self,
        pair_w: np.ndarray,
        boundary_w: np.ndarray,
        allowed: List[List[int]],
        incumbent: MatchingSolution,
        max_options: int,
    ) -> None:
        self.pair_w = pair_w
        self.boundary_w = boundary_w
        self.allowed = allowed
        self.n = len(boundary_w)
        self.best = incumbent
        self.best_weight = incumbent.total_weight
        self.max_options = max_options
        self.options_used = 0
        self._pairs: List[Tuple[int, int]] = []
        self._boundary: List[int] = []
        self._matched = [False] * self.n

    def run(self) -> Tuple[MatchingSolution, int]:
        try:
            self._dfs(0, 0.0)
        except _BudgetExhausted:
            pass
        return self.best, self.options_used

    def _charge(self) -> None:
        self.options_used += 1
        if self.options_used > self.max_options:
            raise _BudgetExhausted

    def _dfs(self, cursor: int, weight: float) -> None:
        while cursor < self.n and self._matched[cursor]:
            cursor += 1
        if cursor == self.n:
            if weight < self.best_weight:
                self.best_weight = weight
                self.best = MatchingSolution(
                    pairs=sorted(self._pairs),
                    boundary=sorted(self._boundary),
                    total_weight=weight,
                )
            return
        i = cursor
        options: List[Tuple[float, int]] = [
            (float(self.pair_w[i, j]), j)
            for j in self.allowed[i]
            if not self._matched[j]
        ]
        options.append((float(self.boundary_w[i]), -1))
        options.sort()
        for option_weight, j in options:
            self._charge()
            new_weight = weight + option_weight
            if new_weight >= self.best_weight:
                continue  # bound: options are sorted, so every later one fails too
            self._matched[i] = True
            if j >= 0:
                self._matched[j] = True
                self._pairs.append((i, j))
            else:
                self._boundary.append(i)
            self._dfs(cursor + 1, new_weight)
            if j >= 0:
                self._matched[j] = False
                self._pairs.pop()
            else:
                self._boundary.pop()
            self._matched[i] = False
