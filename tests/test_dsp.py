import numpy as np
import pytest

from footfall import FootfallError, MultichannelWaveform, Waveform
from footfall import dsp
from footfall.dsp import analyze_padded, hann_window, istft, ola_weight, rms, stft, synthesize_padded


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
    frames = np.fft.irfft(spec.complex_values().T, n=window_len, axis=1) * window
    acc = _loop_overlap_add(frames, hop)
    want = np.where(den > dsp._OLA_FLOOR * den.max(), acc / np.maximum(den, 1e-300), 0.0)
    assert np.array_equal(istft(spec).samples, want)


def test_stft_requires_full_window():
    with pytest.raises(FootfallError):
        stft(Waveform(np.ones(100), 16000), window_len=512, hop=256)


def test_padded_round_trip_exact_full_length():
    w = _noise_wave(5000)
    spec, offset = analyze_padded(w, 512, 256)
    back = synthesize_padded(spec, offset, len(w))
    assert back.samples.size == 5000
    assert np.max(np.abs(back.samples - w.samples)) < 1e-9


def test_spectrogram_phase_required_for_istft():
    spec = stft(_noise_wave(2048), 512, 256)
    spec.phase = None
    with pytest.raises(FootfallError):
        istft(spec)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), 16000.7, 0.5, 0, None])
@pytest.mark.parametrize("make, samples", [(Waveform, np.zeros(4)),
                                           (MultichannelWaveform, np.zeros((2, 4)))])
def test_sample_rate_must_be_a_positive_whole_number(make, samples, rate):
    with pytest.raises(FootfallError) as err:
        make(samples, rate)
    assert "sample_rate" in err.value.details
    for whole in (48000.0, np.int64(16000)):
        kept = make(samples, whole).sample_rate
        assert kept == int(whole) and type(kept) is int
