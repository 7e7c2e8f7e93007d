"""Tests for the detector-error-model data structures."""

import pickle

import numpy as np
import pytest

from repro.circuits.ops import NoiseClass
from repro.dem.model import (
    NOISE_CLASS_ORDER,
    DetectorErrorModel,
    Mechanism,
    class_index,
    merge_raw_mechanisms,
)
from repro.utils.bits import xor_combine_probabilities


def make_mechanism(dets, obs=0, **class_counts):
    counts = [0] * len(NOISE_CLASS_ORDER)
    for name, n in class_counts.items():
        counts[class_index(NoiseClass[name])] = n
    return Mechanism(detectors=tuple(dets), observable_mask=obs, class_counts=tuple(counts))


class TestMechanism:
    def test_probability_single_class(self):
        m = make_mechanism((0, 1), MEASUREMENT_FLIP=1)
        assert m.probability(0.01) == pytest.approx(0.01)

    def test_probability_xor_combination(self):
        m = make_mechanism((0,), DATA_DEPOLARIZE=2)
        p = 0.03
        expected = xor_combine_probabilities([p / 3, p / 3])
        assert m.probability(p) == pytest.approx(expected)

    def test_probability_mixed_classes(self):
        m = make_mechanism((0,), GATE2_DEPOLARIZE=3, MEASUREMENT_FLIP=1)
        p = 0.01
        expected = xor_combine_probabilities([p / 15] * 3 + [p])
        assert m.probability(p) == pytest.approx(expected)

    def test_zero_rate(self):
        m = make_mechanism((0,), RESET_FLIP=5)
        assert m.probability(0.0) == 0.0


class TestMerge:
    def test_identical_signatures_merge(self):
        sigs = [((0, 1), 0), ((0, 1), 0), ((0, 1), 1)]
        classes = [
            NoiseClass.DATA_DEPOLARIZE,
            NoiseClass.MEASUREMENT_FLIP,
            NoiseClass.DATA_DEPOLARIZE,
        ]
        merged = merge_raw_mechanisms(sigs, classes)
        assert len(merged) == 2
        by_obs = {m.observable_mask: m for m in merged}
        assert by_obs[0].class_counts[class_index(NoiseClass.DATA_DEPOLARIZE)] == 1
        assert by_obs[0].class_counts[class_index(NoiseClass.MEASUREMENT_FLIP)] == 1

    def test_empty_signatures_dropped(self):
        merged = merge_raw_mechanisms([((), 0)], [NoiseClass.RESET_FLIP])
        assert merged == []

    def test_detectors_sorted(self):
        merged = merge_raw_mechanisms([((5, 2), 0)], [NoiseClass.RESET_FLIP])
        assert merged[0].detectors == (2, 5)


class TestValidation:
    def test_rejects_undetectable_logical(self):
        dem = DetectorErrorModel(
            n_detectors=2,
            n_observables=1,
            mechanisms=[make_mechanism((), obs=1, RESET_FLIP=1)],
            detector_coords=[(0, 0, 0), (0, 1, 0)],
        )
        with pytest.raises(AssertionError):
            dem.validate()

    def test_rejects_out_of_range_detector(self):
        dem = DetectorErrorModel(
            n_detectors=1,
            n_observables=1,
            mechanisms=[make_mechanism((5,), RESET_FLIP=1)],
            detector_coords=[(0, 0, 0)],
        )
        with pytest.raises(AssertionError):
            dem.validate()

    def test_histogram(self):
        dem = DetectorErrorModel(
            n_detectors=3,
            n_observables=1,
            mechanisms=[
                make_mechanism((0,), RESET_FLIP=1),
                make_mechanism((0, 1), RESET_FLIP=1),
                make_mechanism((1, 2), RESET_FLIP=1),
            ],
            detector_coords=[(0, 0, 0)] * 3,
        )
        assert dem.mechanism_size_histogram() == {1: 1, 2: 2}


class TestProbabilityMemo:
    def test_memo_equals_per_mechanism_loop(self, d3_stack):
        _exp, dem, _graph = d3_stack
        for p in (1e-4, 3e-3):
            loop = np.array([m.probability(p) for m in dem.mechanisms])
            memo = dem.probabilities(p)
            assert memo.dtype == np.float64
            assert memo.tobytes() == loop.tobytes()
            assert dem.probabilities(p) is memo

    def test_memo_is_read_only(self, d3_stack):
        _exp, dem, _graph = d3_stack
        with pytest.raises(ValueError):
            dem.probabilities(1e-3)[0] = 0.5

    def test_pickle_carries_no_memo(self):
        dem = DetectorErrorModel(
            n_detectors=2,
            n_observables=1,
            mechanisms=[make_mechanism((0, 1), RESET_FLIP=1)],
            detector_coords=[(0, 0, 0), (0, 1, 0)],
        )
        cold = pickle.dumps(dem)
        dem.probabilities(1e-3)
        assert pickle.dumps(dem) == cold
        clone = pickle.loads(cold)
        assert clone == dem
        assert "_probability_memo" not in clone.__dict__
        assert clone.probabilities(1e-3).tobytes() == dem.probabilities(1e-3).tobytes()
