import numpy as np
import pytest

import score
from footfall.scenes import GroundTruth, StepTruth


def test_match_steps_pairs_within_tolerance_one_to_one():
    found = [0.95, 1.02, 2.5, 3.0]
    truth = [1.0, 2.0, 3.05]
    # 0.95 takes 1.0; 1.02 has no partner left; 2.5 is 0.5 off; 3.0 takes 3.05
    assert score.match_steps(found, truth, tol=0.1) == [(0, 0), (3, 2)]
    assert score.match_steps([], truth) == []
    assert score.match_steps(found, []) == []


def test_match_steps_skips_a_spurious_onset_between_true_steps():
    assert score.match_steps([0.5, 0.9, 1.5], [0.52, 1.48], tol=0.05) == [(0, 0), (2, 1)]


def test_f1_hand_values():
    assert score.f1(2, 4, 3) == pytest.approx(4 / 7)
    assert score.f1(0, 0, 5) == 0.0
    assert score.f1(3, 3, 3) == 1.0


def test_true_rate_is_inverse_median_interval():
    times = np.array([0.5, 1.0, 1.5, 2.2, 2.7])  # one slow interval
    assert score.true_rate(times) == pytest.approx(2.0)


def _truth(voice_level, noise_level, steps=(1.0,)):
    fs = 100
    n = 300
    voice = np.zeros((1, n))
    voice[0, 150:200] = voice_level
    noise = np.full((1, n), noise_level)
    return GroundTruth(sample_rate=fs, duration_s=3.0,
                       steps=[StepTruth(t, "ada", (0.0, 0.0), (0.0, 0.0)) for t in steps],
                       voice_stem=voice, noise_stem=noise)


def test_segment_class_labels_steps_voice_and_noise():
    truth = _truth(voice_level=1.0, noise_level=0.1)
    steps = truth.step_times()
    assert score.segment_class(0.98, 1.2, truth, steps) == "footstep"
    assert score.segment_class(1.03, 1.2, truth, steps) == "footstep"  # step just before
    assert score.segment_class(1.1, 1.2, truth, steps) == "noise"
    assert score.segment_class(1.5, 1.9, truth, steps) == "voice"
    silent_voice = _truth(voice_level=0.0, noise_level=0.1)
    assert score.segment_class(1.5, 1.9, silent_voice, steps) == "noise"


def test_aggregate_pools_counts_and_takes_medians():
    qs = [
        {"walker": True, "accept": True, "margin_db": 20.0, "event_hits": 3, "events": 4,
         "pace_err_hz": 0.01, "step_hits": 5, "found": 6, "true": 5, "sdr_db": 4.0,
         "sir_gain_db": 10.0, "id_hits": 4, "id_n": 5},
        {"walker": True, "accept": False, "margin_db": 2.0, "event_hits": 1, "events": 1,
         "pace_err_hz": 0.5, "step_hits": 0, "found": 0, "true": 5},
        {"walker": True, "accept": True, "margin_db": 18.0, "event_hits": 0, "events": 0,
         "pace_err_hz": 0.02, "step_hits": 4, "found": 4, "true": 4, "sdr_db": 8.0,
         "sir_gain_db": 12.0, "id_hits": 1, "id_n": 3},
    ]
    out = score.aggregate(qs)
    assert out["rhythm_correct"] == pytest.approx(2 / 3)
    assert out["pace_err_hz"] == pytest.approx(0.02)
    assert out["step_f1"] == pytest.approx(2 * 9 / (10 + 14))
    assert out["event_acc"] == pytest.approx(4 / 5)
    assert out["sdr_db"] == pytest.approx(6.0)
    assert out["sir_gain_db"] == pytest.approx(11.0)
    assert out["id_acc"] == pytest.approx(5 / 8)


def test_aggregate_leaves_out_what_does_not_apply():
    out = score.aggregate([{"walker": False, "accept": False, "margin_db": 3.0,
                            "event_hits": 0, "events": 0}])
    assert out == {"rhythm_correct": 1.0}
