import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from footfall import FootfallError, MultichannelWaveform, Waveform
from footfall import dsp
from footfall.detect import detect_events, energy_gate, gate_threshold
from footfall.dsp import analyze_padded, hann_window, istft, ola_weight, rms, stft, synthesize_padded
from footfall.floors import CONCRETE_SLAB, arrival_gap, dispersion_speed, material_for_speed
from footfall.footsteps import FootstepPersona, footstep_parts, place_footstep, synth_footstep
from footfall.gmm import GmmModel, gmm_classify
from footfall.idnet import IdNet, TrainSet, forward, identify, save_checkpoint, train_adversarial
from footfall.interferers import babble, pink_noise, white_noise
from footfall.nmf import nmf_separate
from footfall.rhythm import asacc, rhythm_present
from footfall.scenes import (AirSource, MicArray, Scene, Trajectory, Walker, emulate_attack,
                             natural_walk, render_scene)
from footfall.types import Spectrogram
from footfall.wiener import wiener_residual_suppress


def _noise_wave(n=8192, sr=16000, seed=0):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(n), sr)


def test_rms_hand_values():
    # sqrt((9 + 16) / 2) = sqrt(12.5)
    assert rms(Waveform(np.array([3.0, -4.0]), 16000)) == pytest.approx(np.sqrt(12.5), abs=1e-12)
    assert rms(Waveform(np.ones(100), 16000)) == pytest.approx(1.0, abs=1e-12)


def test_rms_full_period_sine():
    t = np.arange(16000) / 16000.0
    w = Waveform(np.sin(2 * np.pi * 100 * t), 16000)
    assert rms(w) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_rms_scales_linearly():
    w = _noise_wave()
    assert rms(Waveform(2.5 * w.samples, w.sample_rate)) == pytest.approx(2.5 * rms(w), rel=1e-12)


def test_stft_shape():
    w = _noise_wave(4096)
    spec = stft(w, window_len=512, hop=256)
    assert spec.n_bins == 257
    assert spec.n_frames == 1 + (4096 - 512) // 256
    assert spec.frame_rate == pytest.approx(16000 / 256)


def test_stft_impulse_flat_spectrum():
    # unit impulse inside one frame: |X(k)| = window value at the impulse, all bins
    x = np.zeros(512)
    x[200] = 1.0
    spec = stft(Waveform(x, 16000), window_len=512, hop=256)
    expected = hann_window(512)[200]
    assert np.allclose(spec.magnitudes[:, 0], expected, atol=1e-12)


def test_stft_shift_covariance():
    w = _noise_wave(4096)
    shifted = Waveform(w.samples[256:], w.sample_rate)
    a = stft(w, 512, 256).magnitudes
    b = stft(shifted, 512, 256).magnitudes
    assert np.allclose(a[:, 1:], b, atol=1e-12)


def test_istft_round_trip_interior():
    w = _noise_wave(8192)
    back = istft(stft(w, 512, 256))
    sl = slice(512, 8192 - 512)
    err = rms(Waveform(back.samples[sl] - w.samples[sl], w.sample_rate))
    assert err <= 1e-6


def test_istft_round_trip_uneven_hop():
    w = _noise_wave(8192)
    back = istft(stft(w, 512, 160))
    sl = slice(512, 8192 - 512)
    err = np.sqrt(np.mean((back.samples[sl] - w.samples[sl]) ** 2))
    assert err <= 1e-6


def test_stft_rejects_hop_beyond_window():
    with pytest.raises(FootfallError):
        stft(_noise_wave(), window_len=512, hop=513)


@pytest.mark.parametrize("hop", [0, -256])
def test_padded_analysis_rejects_non_positive_hop(hop):
    with pytest.raises(FootfallError) as err:
        analyze_padded(_noise_wave(), 512, hop)
    assert err.value.details["hop"] == hop


def test_istft_rejects_non_invertible_overlap():
    # Hann at zero overlap leaves periodic zero-weight samples
    spec = stft(_noise_wave(4096), window_len=512, hop=512)
    with pytest.raises(FootfallError):
        istft(spec)


def test_ola_weight_bounded_away_from_zero_at_half_overlap():
    # squared-Hann weight at 50% overlap dips to half but never vanishes,
    # which is what weighted overlap-add needs
    den = ola_weight(hann_window(512), 256, 16)
    interior = den[512:-512]
    assert interior.min() >= 0.5 - 1e-12


def test_ola_weight_constant_at_quarter_hop():
    # squared Hann is constant-overlap-add at hop = window / 4
    den = ola_weight(hann_window(512), 128, 32)
    interior = den[512:-512]
    assert np.ptp(interior) < 1e-9 * den.max()


def _loop_overlap_add(frames, hop):
    """Frame-by-frame overlap-add: the reference for the chunked sum."""
    n_frames, window_len = frames.shape
    acc = np.zeros((n_frames - 1) * hop + window_len)
    for m in range(n_frames):
        acc[m * hop : m * hop + window_len] += frames[m]
    return acc


@pytest.mark.parametrize("window_len, hop", [(512, 256), (512, 128), (400, 160)])
def test_overlap_add_matches_a_frame_loop_bitwise(window_len, hop):
    spec = stft(_noise_wave(), window_len, hop)
    window = hann_window(window_len)
    den = _loop_overlap_add(np.tile(window * window, (spec.n_frames, 1)), hop)
    assert np.array_equal(ola_weight(window, hop, spec.n_frames), den)
    frames = np.fft.irfft(spec.values.T, n=window_len, axis=1) * window
    acc = _loop_overlap_add(frames, hop)
    want = np.where(den > dsp._OLA_FLOOR * den.max(), acc / np.maximum(den, 1e-300), 0.0)
    assert np.array_equal(istft(spec).samples, want)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 4, 5, 9])
@pytest.mark.parametrize("window_len, hop", [(512, 256), (512, 128), (400, 160), (512, 512)])
def test_ola_weight_matches_a_frame_loop_bitwise_for_few_frames(window_len, hop, n_frames):
    window = hann_window(window_len)
    den = _loop_overlap_add(np.tile(window * window, (n_frames, 1)), hop)
    assert np.array_equal(ola_weight(window, hop, n_frames), den)


@pytest.mark.parametrize("n_frames", [0, -1, 2.5])
def test_ola_weight_rejects_a_frame_count_that_is_not_positive(n_frames):
    with pytest.raises(FootfallError) as err:
        ola_weight(hann_window(512), 256, n_frames)
    assert err.value.details == {"n_frames": n_frames}


def test_stft_requires_full_window():
    with pytest.raises(FootfallError):
        stft(Waveform(np.ones(100), 16000), window_len=512, hop=256)


def test_padded_round_trip_exact_full_length():
    w = _noise_wave(5000)
    spec, offset = analyze_padded(w, 512, 256)
    back = synthesize_padded(spec, offset, len(w))
    assert back.samples.size == 5000
    assert np.max(np.abs(back.samples - w.samples)) < 1e-9


def test_stft_keeps_the_complex_spectrum_it_inverts():
    w = _noise_wave(4096)
    spec = stft(w, 512, 256)
    frames = sliding_window_view(w.samples, 512)[::256] * hann_window(512)
    assert np.array_equal(spec.values, np.fft.rfft(frames, axis=1).T)
    assert np.array_equal(spec.magnitudes, np.abs(spec.values))


def _values_with(kind):
    values = stft(_noise_wave(2048), 512, 256).values
    if kind == "nan":
        values[3, 2] = np.nan
    elif kind == "inf":
        values[0, 0] = complex(0.0, np.inf)
    elif kind == "shape":
        values = values[1:]
    elif kind == "flat":
        values = values[0]
    elif kind == "real":
        values = np.abs(values)
    elif kind == "ragged":
        values = [list(values[0]), list(values[1, 1:])]
    return values


@pytest.mark.parametrize("kind, detail", [("nan", "non_finite"), ("inf", "non_finite"),
                                          ("shape", "shape"), ("flat", "shape"),
                                          ("real", "dtype"), ("ragged", "shape")])
def test_spectrogram_values_must_be_finite_complex_and_shaped_like_magnitudes(kind, detail):
    with pytest.raises(FootfallError) as err:
        Spectrogram(_values_with(kind), 512, 256, 16000)
    assert detail in err.value.details


def test_istft_rejects_a_spectrogram_without_frames():
    empty = Spectrogram(np.zeros((257, 0), complex), 512, 256, 16000)
    with pytest.raises(FootfallError) as err:
        istft(empty)
    assert err.value.details == {"shape": [257, 0]}


@pytest.mark.parametrize("offset, n_samples, name", [
    (0, -5, "n_samples"), (-1, 10, "offset"), (2.5, 10, "offset"), (0, float("nan"), "n_samples"),
    (0, "10", "n_samples"), (10**6, 0, "length"), (512, 10**6, "length")],
    ids=["negative-length", "negative-offset", "fractional-offset", "nan-length", "str-length",
         "offset-past-end", "span-past-end"])
def test_synthesize_padded_rejects_a_span_outside_the_inverse(offset, n_samples, name):
    spec, _ = analyze_padded(_noise_wave(1000), 512, 256)
    with pytest.raises(FootfallError) as err:
        synthesize_padded(spec, offset, n_samples)
    assert name in err.value.details


def test_synthesize_padded_takes_any_span_inside_the_inverse():
    w = _noise_wave(1000)
    spec, offset = analyze_padded(w, 512, 256)
    full = istft(spec).samples
    assert synthesize_padded(spec, offset, 0).samples.size == 0
    assert np.array_equal(synthesize_padded(spec, 0.0, full.size).samples, full)
    assert synthesize_padded(spec, full.size, 0).samples.size == 0


@pytest.mark.parametrize("make, samples", [
    (Waveform, "abc"), (Waveform, [[0.0, 1.0], [2.0]]), (Waveform, np.ones(4, complex)),
    (Waveform, [True, False]), (Waveform, np.zeros((2, 4))), (MultichannelWaveform, np.zeros(4)),
    (MultichannelWaveform, np.full((2, 4), np.inf)),
], ids=["str", "ragged", "complex", "bool", "2-d-mono", "1-d-multichannel", "inf"])
def test_samples_must_be_a_finite_real_array_of_the_right_rank(make, samples):
    with pytest.raises(FootfallError) as err:
        make(samples, 16000)
    assert err.value.details["argument"] == "samples" and "shape" in err.value.details


def _spectrogram(values, sample_rate):
    return Spectrogram(values, 4, 2, sample_rate)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), 16000.7, 0.5, 0, None,
                                  pytest.param("16000", id="str-16000"), True,
                                  pytest.param("abc", id="str-abc"), 16000.5])
@pytest.mark.parametrize("make, samples", [(Waveform, np.zeros(4)),
                                           (MultichannelWaveform, np.zeros((2, 4))),
                                           (_spectrogram, np.zeros((3, 2), complex))])
def test_sample_rate_must_be_a_positive_whole_number(make, samples, rate):
    with pytest.raises(FootfallError) as err:
        make(samples, rate)
    assert "sample_rate" in err.value.details
    for whole in (48000.0, np.int64(16000)):
        kept = make(samples, whole).sample_rate
        assert kept == int(whole) and type(kept) is int


def _sizes_through(entry, window_len, hop):
    """The output of one entry point given these window and hop sizes, as an array."""
    w = _noise_wave(2048)
    if entry == "stft":
        return stft(w, window_len, hop).magnitudes
    if entry == "analyze_padded":
        return analyze_padded(w, window_len, hop)[0].magnitudes
    if entry == "Spectrogram":
        spec = Spectrogram(np.ones((257, 3), complex), window_len, hop, 16000)
        assert type(spec.window_len) is int and type(spec.hop) is int
        return spec.magnitudes
    spec = stft(w, 512, 256)
    spec.window_len, spec.hop = window_len, hop
    return istft(spec).samples


@pytest.mark.parametrize("name, value", [("hop", 256.5), ("hop", float("nan")), ("hop", None),
                                         ("hop", "256"), ("window_len", 512.5),
                                         ("window_len", 0), ("window_len", True)],
                         ids=["hop-256.5", "hop-nan", "hop-None", "hop-str", "window_len-512.5",
                              "window_len-0", "window_len-True"])
@pytest.mark.parametrize("entry", ["stft", "analyze_padded", "istft", "Spectrogram"])
def test_window_and_hop_must_be_positive_whole_numbers(entry, name, value):
    sizes = {"window_len": 512, "hop": 256}
    with pytest.raises(FootfallError) as err:
        _sizes_through(entry, **{**sizes, name: value})
    assert name in err.value.details and name in err.value.message
    # a whole float is the same size as the int
    assert np.array_equal(_sizes_through(entry, 512.0, 256.0), _sizes_through(entry, 512, 256))


def _persona():
    return FootstepPersona("p", 1.0, 0.002, ((70.0, 30.0, 1.0),))


def _line():
    return Trajectory(np.array([0.0, 2.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))


def _scene(**fields):
    return Scene(**{"floor": CONCRETE_SLAB, "array": MicArray(np.zeros((1, 2))), **fields})


_GMM = {"a": GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))}
_SILENCE = Waveform(np.zeros(1600), 16000)  # the gate finds no segment in it


@pytest.mark.parametrize("call, name", [
    (lambda: AirSource("x", [0, 0]), "waveform"),
    (lambda: stft("abc", 512, 256), "w"),
    (lambda: analyze_padded("abc", 512, 256), "w"),
    (lambda: istft("abc"), "spec"),
    (lambda: synthesize_padded("abc", 0, 10), "spec"),
    (lambda: wiener_residual_suppress("abc", None), "noisy"),
    (lambda: wiener_residual_suppress(_noise_wave(), np.ones((257, 3))), "noise_floor"),
    (lambda: render_scene("abc"), "scene"),
    (lambda: emulate_attack("abc", [0.0, 0.0], [1.0, 1.0]), "scene"),
    (lambda: nmf_separate("x", 1.5), "mix"),
    (lambda: asacc("x"), "spec"),
    (lambda: rhythm_present(np.ones(64), 62.5), "b"),
    (lambda: energy_gate("x", 160, 0.1), "w"),
    (lambda: gate_threshold("x", 160), "w"),
    (lambda: detect_events("x", _GMM, 160), "w"),
    (lambda: detect_events(_SILENCE, {"a": "x"}, 160), "models"),
    (lambda: detect_events(_SILENCE, ["x"], 160), "models"),
    (lambda: gmm_classify({"a": "x"}, np.zeros((4, 2))), "models"),
    (lambda: footstep_parts("x", CONCRETE_SLAB, 16000), "persona"),
    (lambda: place_footstep("x", CONCRETE_SLAB, 1.0), "parts"),
    (lambda: place_footstep(footstep_parts(_persona(), CONCRETE_SLAB, 16000), "x", 1.0),
     "material"),
    (lambda: synth_footstep(_persona(), "x", 1.0, 16000), "material"),
    (lambda: dispersion_speed("x", 1000.0), "material"),
    (lambda: arrival_gap(1.0, "x", 1000.0), "material"),
    (lambda: material_for_speed(250.0, base="x"), "base"),
    (lambda: forward("x", np.zeros((32, 16))), "net"),
    (lambda: identify("x", [np.zeros((32, 16))]), "net"),
    (lambda: save_checkpoint("unused.npz", "x", np.zeros((2, 16))), "net"),
    (lambda: train_adversarial("x"), "dataset"),
    (lambda: train_adversarial(TrainSet(np.zeros((2, 32, 16)), [0, 1], [0, 0]), "x"),
     "config"),
    (lambda: babble(1.0, 16000, None), "rng"),
    (lambda: pink_noise(100, None), "rng"),
    (lambda: white_noise(100, None), "rng"),
    (lambda: _scene(floor="x"), "floor"),
    (lambda: _scene(array="x"), "array"),
    (lambda: _scene(walkers=("x",)), "walkers"),
    (lambda: _scene(walkers=5), "walkers"),
    (lambda: _scene(voices=("x",)), "voices"),
    (lambda: Walker("x", _line()), "persona"),
    (lambda: Walker(_persona(), "x"), "trajectory"),
    (lambda: natural_walk("x", [0, 0], [1, 0], np.random.default_rng(0)), "persona"),
    (lambda: natural_walk(_persona(), [0, 0], [1, 0], None), "rng"),
], ids=["air-source", "stft", "analyze_padded", "istft", "synthesize_padded", "wiener-noisy",
        "wiener-floor", "render_scene", "emulate_attack", "nmf_separate", "asacc",
        "rhythm_present", "energy_gate", "gate_threshold", "detect_events",
        "detect_events-no-segment-models", "detect_events-models-list", "gmm_classify",
        "footstep_parts", "place_footstep-parts", "place_footstep-material",
        "synth_footstep", "dispersion_speed", "arrival_gap", "material_for_speed", "forward",
        "identify", "save_checkpoint", "train_adversarial-dataset", "train_adversarial-config",
        "babble", "pink_noise", "white_noise", "scene-floor", "scene-array", "scene-walkers",
        "scene-walkers-not-a-sequence", "scene-voices", "walker-persona", "walker-trajectory",
        "natural_walk-persona", "natural_walk-rng"])
def test_a_container_argument_of_the_wrong_type_raises_by_name(call, name):
    with pytest.raises(FootfallError) as err:
        call()
    assert err.value.details["argument"] == name and name in err.value.message
