import numpy as np
import pytest

from footfall import Waveform
from footfall.errors import FootfallError
from footfall.mfc import _hz_to_mel, _mel_filterbank, _mel_to_hz, mfc


def _tone_mix(n=8192, sr=16000, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sr
    x = np.zeros(n)
    for f in (180.0, 443.0, 1290.0, 3070.0):
        x += rng.uniform(0.4, 1.0) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return Waveform(x, sr)


def test_mel_scale_known_point():
    # 2595 * log10(1 + 1000/700) = 999.9856 mel
    assert _hz_to_mel(1000.0) == pytest.approx(999.9856, abs=1e-3)
    assert _mel_to_hz(_hz_to_mel(1234.5)) == pytest.approx(1234.5, rel=1e-10)


def test_filterbank_shape_and_support():
    fb = _mel_filterbank(512, 16000)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    # every filter has nonzero support
    assert np.all(fb.sum(axis=1) > 0)


def test_mfc_shape():
    feats = mfc(_tone_mix(), window_len=512, hop=256)
    assert feats.shape == (1 + (8192 - 512) // 256, 13)


def test_amplitude_doubling_shifts_only_coeff0():
    w = _tone_mix()
    a = mfc(w)
    b = mfc(Waveform(2.0 * w.samples, w.sample_rate))
    # log power rises by log(4) in every filter; ortho DCT-II routes a uniform
    # shift entirely into coefficient 0, scaled by sqrt(n_filters)
    assert np.allclose(a[:, 1:], b[:, 1:], atol=1e-9)
    expected = np.sqrt(26) * np.log(4.0)
    assert np.allclose(b[:, 0] - a[:, 0], expected, atol=1e-9)


def test_shift_by_hop_shifts_frames():
    w = _tone_mix()
    a = mfc(w)
    b = mfc(Waveform(w.samples[256:], w.sample_rate))
    assert np.allclose(a[1:], b, atol=1e-10)


def test_mfc_deterministic():
    w = _tone_mix()
    assert np.array_equal(mfc(w), mfc(w))


def test_filterbank_is_built_once_and_read_only():
    fb = _mel_filterbank(512, 16000)
    assert _mel_filterbank(512, 16000) is fb
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    assert np.array_equal(fb, _mel_filterbank.__wrapped__(512, 16000))
    # mfc builds it from the spectrogram's checked ints, so float sizes are legal
    w = _tone_mix()
    assert np.array_equal(mfc(w, 512.0, 256.0), mfc(w, 512, 256))


@pytest.mark.parametrize("window_len, sample_rate, name", [
    ("512", 16000, "window_len"), (512.5, 16000, "window_len"), (0, 16000, "window_len"),
    (512, None, "sample_rate"), (512, float("nan"), "sample_rate")],
    ids=["str-window", "fractional-window", "zero-window", "None-rate", "nan-rate"])
def test_filterbank_sizes_must_be_positive_whole_numbers(window_len, sample_rate, name):
    # the sizes reach the filterbank only through mfc's checked Spectrogram;
    # a waveform's rate can be reassigned after it was checked
    w = _tone_mix()
    w.sample_rate = sample_rate
    with pytest.raises(FootfallError) as err:
        mfc(w, window_len)
    assert name in err.value.details


def test_mfc_with_the_cached_filterbank_is_bitwise_a_fresh_build():
    from scipy.fft import dct

    from footfall.dsp import stft

    w = _tone_mix(sr=48000)
    power = stft(w, 768, 384).magnitudes.T ** 2
    energy = power @ _mel_filterbank.__wrapped__(768, 48000).T
    fresh = dct(np.log(np.maximum(energy, 1e-30)), type=2, axis=1, norm="ortho")[:, :13]
    _mel_filterbank.cache_clear()
    for _ in range(2):  # the first call builds the filterbank, the second reuses it
        assert np.array_equal(mfc(w, 768, 384), fresh)
