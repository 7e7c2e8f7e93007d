"""Tests for the Astrea-G budgeted search model."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import make_path_graph  # noqa: E402

from repro.decoders import AstreaGDecoder, MWPMDecoder, ReferenceAstreaGDecoder
from repro.matching.exact import MatchingSolution
from repro.matching.greedy import greedy_matching
from repro.sim.sampler import ExactKSampler


class TestSearchQuality:
    def test_exact_on_sparse_syndromes(self, d5_stack, d5_syndromes):
        """With a generous budget and mild pruning, AG must find the MWPM
        answer on small syndromes (the 'both succeed' regime of 4.2.3)."""
        _exp, _dem, graph = d5_stack
        ag = AstreaGDecoder(graph, prune_probability=1e-12)
        mwpm = MWPMDecoder(graph)
        checked = 0
        for events in d5_syndromes.events:
            if not 0 < len(events) <= 8:
                continue
            a = ag.decode(events)
            m = mwpm.decode(events)
            assert a.success
            assert a.weight <= m.weight + 1e-6 or a.weight == pytest.approx(
                m.weight, rel=1e-6
            )
            checked += 1
            if checked >= 50:
                break
        assert checked > 10

    def test_budget_exhaustion_still_returns(self, d5_stack, d5_syndromes):
        _exp, _dem, graph = d5_stack
        starved = AstreaGDecoder(graph, budget_cycles=1, options_per_cycle=2)
        big = max(d5_syndromes.events, key=len)
        result = starved.decode(big)
        assert result.success  # greedy incumbent always exists
        matched = {u for pair in result.pairs for u in pair} | set(result.boundary)
        assert matched == set(big)

    def test_starved_search_is_no_better_than_rich(self, d5_stack, d5_syndromes):
        _exp, _dem, graph = d5_stack
        rich = AstreaGDecoder(graph, prune_probability=1e-12)
        starved = AstreaGDecoder(
            graph, prune_probability=1e-12, budget_cycles=1, options_per_cycle=2
        )
        for events in d5_syndromes.events[:40]:
            if not events:
                continue
            assert (
                starved.decode(events).weight >= rich.decode(events).weight - 1e-9
            )

    def test_empty(self, d5_stack):
        _exp, _dem, graph = d5_stack
        assert AstreaGDecoder(graph).decode(()).success

    def test_aggressive_pruning_hurts_dense_patterns(self, d5_stack):
        """Pruning everything forces all-boundary matchings (worst case)."""
        _exp, _dem, graph = d5_stack
        # prune_probability = 1 makes every pair edge inadmissible.
        ag = AstreaGDecoder(graph, prune_probability=0.999999)
        events = (0, 1, 2, 3)
        result = ag.decode(events)
        assert result.success
        assert sorted(result.boundary) == [0, 1, 2, 3]

    def test_cycles_reported_within_budget(self, d5_stack, d5_syndromes):
        _exp, _dem, graph = d5_stack
        ag = AstreaGDecoder(graph)
        for events in d5_syndromes.events[:30]:
            result = ag.decode(events)
            assert result.cycles is not None
            assert result.cycles <= ag.budget_cycles


def _row(result):
    return (
        result.success,
        result.observable_mask,
        result.weight,
        result.cycles,
        result.pairs,
        result.boundary,
    )


@pytest.fixture(scope="module")
def d5_shots(d5_stack, d5_syndromes):
    """Sparse sampled syndromes plus high-HW exact-k shots."""
    _exp, dem, _graph = d5_stack
    sampler = ExactKSampler(dem, 3e-3, rng=20261017)
    dense = [e for k in (6, 10, 14, 18) for e in sampler.sample(k, 5).events]
    return list(d5_syndromes.events[:150]) + dense


#: Default budget; a starved one that runs out inside a bulk charge;
#: pruning of every pair edge; and almost none.
SETTINGS = {
    "default": {},
    "starved": {"budget_cycles": 1, "options_per_cycle": 2},
    "prune-all": {"prune_probability": 0.999999},
    "prune-mild": {"prune_probability": 1e-12},
}


class TestReferenceEquivalence:
    """The flat search against ReferenceAstreaGDecoder, element by element."""

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_decodes_match_reference(self, d5_stack, d5_shots, name):
        _exp, _dem, graph = d5_stack
        fast = AstreaGDecoder(graph, **SETTINGS[name])
        reference = ReferenceAstreaGDecoder(graph, **SETTINGS[name])
        exhausted = 0
        for events in d5_shots:
            result = fast.decode(events)
            assert _row(result) == _row(reference.decode(events)), events
            exhausted += result.cycles == fast.budget_cycles and len(events) > 2
        if name in ("default", "starved"):
            assert exhausted > 0  # the budget-exhaustion path is exercised

    def test_every_budget_cut_matches_reference(self, d5_stack, d5_shots):
        """Budgets of 1..80 options end the search at every point of the
        first bulk charges, inside a bound failure or a dead child."""
        _exp, _dem, graph = d5_stack
        dense = sorted(d5_shots, key=len)[-3:]
        for max_options in range(1, 81):
            fast = AstreaGDecoder(graph, budget_cycles=max_options, options_per_cycle=1)
            reference = ReferenceAstreaGDecoder(
                graph, budget_cycles=max_options, options_per_cycle=1
            )
            for events in dense:
                assert _row(fast.decode(events)) == _row(reference.decode(events))


def _all_boundary(boundary_w):
    n = len(boundary_w)
    return MatchingSolution(
        boundary=list(range(n)), total_weight=float(sum(boundary_w.tolist()))
    )


@st.composite
def _instances(draw):
    """Small-integer weights, so options tie often."""
    n = draw(st.integers(1, 7))
    upper = [draw(st.integers(1, 3)) for _ in range(n * (n - 1) // 2)]
    pair = np.zeros((n, n))
    pair[np.triu_indices(n, 1)] = upper
    pair = pair + pair.T
    boundary = np.array([draw(st.integers(0, 3)) for _ in range(n)], dtype=float)
    cutoff = draw(st.integers(0, 3))
    max_options = draw(st.integers(1, 300))
    greedy = draw(st.booleans())
    return pair, boundary, cutoff, max_options, greedy


@settings(max_examples=300, deadline=None)
@given(_instances())
@example((np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]), 3, 300, False))
def test_search_matches_reference_on_ties(instance):
    """Boundary ``(w, -1)`` sorts before a partner ``(w, j)`` of equal
    weight in both engines; the example is a tie that order decides (the
    boundary-first order charges 3 options, partner-first would charge 2)."""
    pair, boundary, cutoff, max_options, greedy = instance
    n = len(boundary)
    allowed = [[j for j in range(n) if j != i and pair[i, j] <= cutoff] for i in range(n)]
    if greedy:
        incumbent = greedy_matching(
            pair,
            boundary,
            allowed_pairs=[(i, j) for i in range(n) for j in allowed[i] if j > i],
        )
    else:
        incumbent = _all_boundary(boundary)
    graph = make_path_graph(2)
    fast = AstreaGDecoder(graph, budget_cycles=max_options, options_per_cycle=1)
    reference = ReferenceAstreaGDecoder(
        graph, budget_cycles=max_options, options_per_cycle=1
    )
    got, got_used = fast._search(pair, boundary, allowed, incumbent)
    want, want_used = reference._search(pair, boundary, allowed, incumbent)
    assert (got.pairs, got.boundary, got.total_weight, got_used) == (
        want.pairs,
        want.boundary,
        want.total_weight,
        want_used,
    )
