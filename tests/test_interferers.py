import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.interferers import _harmonic_sum, _pitch_contour, babble, pink_noise, white_noise


def _octave_energies(x, edges):
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(x.size)
    return [spectrum[(f >= lo) & (f < hi)].sum() for lo, hi in edges]


def test_noise_is_unit_rms():
    rng = np.random.default_rng(3)
    for make in (white_noise, pink_noise):
        x = make(1 << 14, rng)
        assert np.sqrt(np.mean(x * x)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("make, n", [(white_noise, 0), (pink_noise, 0), (pink_noise, 1)])
def test_noise_rejects_too_few_samples(make, n):
    with pytest.raises(FootfallError):
        make(n, np.random.default_rng(0))


def test_white_noise_energy_doubles_per_octave():
    x = white_noise(1 << 17, np.random.default_rng(7))
    bands = [(0.01, 0.02), (0.02, 0.04), (0.04, 0.08), (0.08, 0.16)]
    e = _octave_energies(x, bands)
    for lo, hi in zip(e[:-1], e[1:]):
        assert hi / lo == pytest.approx(2.0, rel=0.15)


def test_pink_noise_energy_constant_per_octave():
    x = pink_noise(1 << 17, np.random.default_rng(7))
    bands = [(0.01, 0.02), (0.02, 0.04), (0.04, 0.08), (0.08, 0.16)]
    e = _octave_energies(x, bands)
    for lo, hi in zip(e[:-1], e[1:]):
        assert hi / lo == pytest.approx(1.0, rel=0.15)


@pytest.mark.parametrize("fs", [16000, 48000])
def test_babble_is_deterministic_and_unit_rms(fs):
    a = babble(3.0, fs, np.random.default_rng(11))
    b = babble(3.0, fs, np.random.default_rng(11))
    assert np.array_equal(a.samples, b.samples)
    assert np.sqrt(np.mean(a.samples ** 2)) == pytest.approx(1.0, rel=1e-12)


# 34 is the most harmonics a talker gets: 3800 Hz over a 110 Hz pitch floor
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("fs", [16000, 48000])
@pytest.mark.parametrize("n_harmonics", [1, 34])
def test_harmonic_sum_matches_a_long_double_sum(fs, n_harmonics):
    n = 2 * fs
    f0 = _pitch_contour(n, fs, np.random.default_rng(4), 110.0, 290.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / fs
    wide = phase.astype(np.longdouble)
    reference = np.zeros(n, dtype=np.longdouble)
    for k in range(1, n_harmonics + 1):
        reference += np.sin(k * wide) / k
    error = np.max(np.abs(_harmonic_sum(phase, n_harmonics) - reference))
    assert float(error) <= 1e-13


def test_babble_carries_no_energy_below_the_pitch_floor():
    x = babble(4.0, 16000, np.random.default_rng(2), n_talkers=4).samples
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(x.size, 1.0 / 16000)
    low = spectrum[f < 95.0].sum()
    assert low / spectrum.sum() < 0.05


def test_babble_envelope_is_syllabic():
    # speech-like gating: short-time level must swing, not hold steady
    x = babble(4.0, 16000, np.random.default_rng(5)).samples
    win = 800  # 50 ms
    frames = x[: x.size // win * win].reshape(-1, win)
    levels = np.sqrt(np.mean(frames ** 2, axis=1))
    assert np.std(levels) / np.mean(levels) > 0.3


def test_babble_rejects_low_pitch_and_bad_duration():
    rng = np.random.default_rng(0)
    with pytest.raises(FootfallError):
        babble(2.0, 16000, rng, pitch_lo=80.0)
    with pytest.raises(FootfallError):
        babble(0.0, 16000, rng)


@pytest.mark.parametrize("duration_s, sample_rate, key", [
    (np.nan, 16000, "duration_s"),
    (np.inf, 16000, "duration_s"),
    (-np.inf, 16000, "duration_s"),
    (1e-5, 16000, "duration_s"),  # rounds to zero samples
    (2.0, 0, "sample_rate"),
    (2.0, -16000, "sample_rate"),
])
def test_babble_rejects_bad_duration_and_rate(duration_s, sample_rate, key):
    with pytest.raises(FootfallError) as err:
        babble(duration_s, sample_rate, np.random.default_rng(0))
    bad = duration_s if key == "duration_s" else sample_rate
    np.testing.assert_equal(err.value.details[key], bad)
