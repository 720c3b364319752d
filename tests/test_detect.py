import numpy as np
import pytest

from footfall.detect import (
    DetectionEvent,
    classification_features,
    detect_events,
    energy_gate,
    gate_threshold,
)
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona, synth_footstep
from footfall.gmm import gmm_fit
from footfall.interferers import babble, white_noise
from footfall.mfc import mfc
from footfall.types import Waveform

FS = 16000


def _persona(seed_mod=0):
    return FootstepPersona(
        name="ada",
        impact_force_scale=1.0,
        impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.7), (2200.0, 200.0, 0.5)),
    )


def test_silence_yields_no_segments():
    w = Waveform(np.zeros(FS), FS)
    assert energy_gate(w, frame=160, threshold=0.0) == []


def test_zero_threshold_spans_a_live_signal():
    w = Waveform(0.25 * np.ones(FS), FS)
    segments = energy_gate(w, frame=160, threshold=0.0)
    assert len(segments) == 1
    assert segments[0].onset_s == 0.0
    assert segments[0].end_s == pytest.approx(1.0)


def test_single_footstep_found_with_onset():
    rng = np.random.default_rng(0)
    x = 1e-5 * rng.standard_normal(3 * FS)
    step = synth_footstep(_persona(), CONCRETE_SLAB, 2.0, FS).samples
    k = int(1.0 * FS)
    x[k:k + step.size] += step[: x.size - k]
    w = Waveform(x, FS)
    segments = energy_gate(w, frame=160, threshold=gate_threshold(w, 160))
    assert len(segments) == 1
    assert abs(segments[0].onset_s - 1.0) <= 0.02
    assert segments[0].end_s > 1.0


def test_segments_merge_only_across_short_gaps():
    frame = 160  # 10 ms
    x = np.zeros(2 * FS)
    x[0:3 * frame] = 0.5
    x[6 * frame:8 * frame] = 0.5          # 30 ms gap: merged
    x[40 * frame:42 * frame] = 0.5        # 320 ms gap: separate
    segments = energy_gate(Waveform(x, FS), frame, threshold=0.1)
    assert len(segments) == 2
    assert segments[0].end_s == pytest.approx(8 * frame / FS)
    assert segments[1].onset_s == pytest.approx(40 * frame / FS)


def test_gate_threshold_tracks_the_noise_floor():
    rng = np.random.default_rng(1)
    w = Waveform(0.01 * rng.standard_normal(FS), FS)
    assert gate_threshold(w, 160) == pytest.approx(0.04, rel=0.2)


@pytest.mark.parametrize("gate", [
    lambda w, frame: gate_threshold(w, frame),
    lambda w, frame: energy_gate(w, frame, 0.1),
], ids=["gate_threshold", "energy_gate"])
@pytest.mark.parametrize("frame", [0, 160.5], ids=["zero", "fractional"])
def test_gate_threshold_rejects_a_zero_frame(gate, frame):
    with pytest.raises(FootfallError) as err:
        gate(Waveform(np.ones(FS), FS), frame)
    assert err.value.details == {"frame": frame}


@pytest.mark.parametrize("threshold", ["0.1", float("nan")], ids=["str", "nan"])
def test_energy_gate_rejects_a_threshold_that_is_not_a_finite_number(threshold):
    with pytest.raises(FootfallError) as err:
        energy_gate(Waveform(np.ones(FS), FS), 160, threshold)
    assert "threshold" in err.value.details


def test_classification_features_drop_level():
    clip = Waveform(babble(0.5, FS, np.random.default_rng(2)).samples, FS)
    loud = Waveform(8.0 * clip.samples, FS)
    a = classification_features(mfc(clip, 256, 128))
    b = classification_features(mfc(loud, 256, 128))
    assert np.allclose(a, b, atol=1e-8)
    with pytest.raises(FootfallError):
        classification_features(np.zeros((4, 1)))


def _clip_bank(kind, n, seed):
    """0.25 s clips of one class."""
    rng = np.random.default_rng(seed)
    clips = []
    span = int(0.25 * FS)
    if kind == "footstep":
        for _ in range(n):
            persona = _persona().perturbed(rng)
            r = rng.uniform(1.0, 3.0)
            x = synth_footstep(persona, CONCRETE_SLAB, r, FS).samples
            k = int(r / CONCRETE_SLAB.air_speed * FS)  # cover the air arrival
            clips.append(x[k:k + span])
    elif kind == "white":
        for _ in range(n):
            clips.append(0.1 * white_noise(span, rng))
    else:
        source = babble(0.3 * n + 1.0, FS, rng).samples
        for i in range(n):
            a = int(i * 0.3 * FS)
            clips.append(source[a:a + span])
    return [Waveform(c, FS) for c in clips]


def _features(clip):
    return classification_features(mfc(clip, 256, 128))


def test_three_way_classification_tops_95_percent():
    kinds = ("footstep", "white", "babble")
    models = {}
    for i, kind in enumerate(kinds):
        train = np.vstack([_features(c) for c in _clip_bank(kind, 60, seed=100 + i)])
        models[kind] = gmm_fit(train, k=4, seed=17)
    correct = 0
    total = 0
    from footfall.gmm import gmm_classify
    for i, kind in enumerate(kinds):
        for clip in _clip_bank(kind, 200, seed=500 + i):
            label, _ = gmm_classify(models, _features(clip))
            correct += label == kind
            total += 1
    assert total == 600
    assert correct / total >= 0.95


def test_detect_events_label_a_walk_and_validate():
    rng = np.random.default_rng(3)
    x = 1e-5 * rng.standard_normal(4 * FS)
    for t in (0.6, 1.5, 2.4, 3.3):
        step = synth_footstep(_persona().perturbed(rng), CONCRETE_SLAB, 2.0, FS).samples
        k = int(t * FS)
        seg = step[: x.size - k]
        x[k:k + seg.size] += seg
    w = Waveform(x, FS)

    foot = np.vstack([_features(c) for c in _clip_bank("footstep", 40, seed=9)])
    noise = np.vstack([_features(c) for c in _clip_bank("white", 40, seed=10)])
    models = {"footstep": gmm_fit(foot, k=3, seed=1), "noise": gmm_fit(noise, k=3, seed=1)}
    events = detect_events(w, models, frame=160)
    assert len(events) == 4
    assert all(e.label == "footstep" for e in events)
    for e, t in zip(events, (0.6, 1.5, 2.4, 3.3)):
        assert abs(e.onset_s - t) < 0.05

    with pytest.raises(FootfallError):
        DetectionEvent(0.0, 0.1, "noise", {"noise": -5.0, "footstep": -1.0})
