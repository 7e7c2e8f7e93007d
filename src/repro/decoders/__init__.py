"""Decoders and predecoders: the paper's full evaluation zoo.

* :class:`~repro.decoders.mwpm.MWPMDecoder` -- idealized (non-real-time)
  minimum-weight perfect matching, the accuracy gold standard.
* :class:`~repro.decoders.astrea.AstreaDecoder` -- exact brute-force
  RT-MWPM for syndromes of HW <= 10 [Vittal et al., ISCA'23].
* :class:`~repro.decoders.astrea_g.AstreaGDecoder` -- Astrea-G: pruned,
  budgeted branch-and-bound seeded with a greedy incumbent
  (:class:`~repro.decoders.astrea_g.ReferenceAstreaGDecoder` retains the
  recursive search as the equivalence oracle).
* :class:`~repro.core.promatch.PromatchPredecoder` -- the paper's
  contribution (in :mod:`repro.core`).
* :class:`~repro.decoders.smith.SmithPredecoder` -- Smith et al. greedy
  syndrome-modifying baseline.
* :class:`~repro.decoders.clique.CliquePredecoder` -- Clique/Hierarchical
  non-syndrome-modifying baseline.
* :class:`~repro.decoders.unionfind.UnionFindDecoder` -- union-find (the
  AFS series of Figure 4): frontier-based scalar engine plus a lock-step
  vectorized batch growth engine
  (:class:`~repro.decoders.unionfind.ReferenceUnionFindDecoder` retains
  the historic full-rescan engine as the equivalence oracle).
* :mod:`repro.decoders.combined` -- predecoder+main pipelines and the
  parallel (``||``) combinator.
"""

from repro.decoders.astrea import AstreaDecoder
from repro.decoders.astrea_g import AstreaGDecoder, ReferenceAstreaGDecoder
from repro.decoders.base import DecodeResult, Decoder, PredecodeResult, Predecoder
from repro.decoders.clique import CliquePredecoder
from repro.decoders.combined import (
    ParallelDecoder,
    PredecodedDecoder,
    combine_parallel_batch,
    combine_parallel_results,
)
from repro.decoders.lookup import LookupTableDecoder
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.smith import SmithPredecoder
from repro.decoders.unionfind import ReferenceUnionFindDecoder, UnionFindDecoder

__all__ = [
    "AstreaDecoder",
    "AstreaGDecoder",
    "DecodeResult",
    "Decoder",
    "PredecodeResult",
    "Predecoder",
    "CliquePredecoder",
    "LookupTableDecoder",
    "ParallelDecoder",
    "PredecodedDecoder",
    "MWPMDecoder",
    "ReferenceAstreaGDecoder",
    "ReferenceUnionFindDecoder",
    "SmithPredecoder",
    "UnionFindDecoder",
    "combine_parallel_batch",
    "combine_parallel_results",
]
