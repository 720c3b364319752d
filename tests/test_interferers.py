import threading

import numpy as np
import pytest

from footfall import interferers
from footfall.errors import FootfallError
from footfall.interferers import _harmonic_sum, _pitch_contour, babble, pink_noise


def _octave_energies(x, edges):
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(x.size)
    return [spectrum[(f >= lo) & (f < hi)].sum() for lo, hi in edges]


def test_noise_is_unit_rms():
    x = pink_noise(1 << 14, np.random.default_rng(3))
    assert np.sqrt(np.mean(x * x)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("make, n", [(pink_noise, 0), (pink_noise, 1)])
def test_noise_rejects_too_few_samples(make, n):
    with pytest.raises(FootfallError):
        make(n, np.random.default_rng(0))


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
    error = np.max(np.abs(_harmonic_sum(phase, n_harmonics, np.empty(n)) - reference))
    assert float(error) <= 1e-13


@pytest.mark.parametrize("fs", [16000, 48000])
def test_babble_gives_the_same_bits_on_the_pool_and_inline(monkeypatch, run_inline, fs):
    ran_on = []
    harmonic_sum = interferers._harmonic_sum

    def watched(*args):
        ran_on.append(threading.current_thread())
        return harmonic_sum(*args)

    monkeypatch.setattr(interferers, "_harmonic_sum", watched)
    before = set(threading.enumerate())
    pooled = babble(2.0, fs, np.random.default_rng(5)).samples
    assert len(ran_on) == 4 and threading.current_thread() not in ran_on
    assert set(threading.enumerate()) <= before  # the pool's workers have exited
    run_inline(interferers)
    inline = babble(2.0, fs, np.random.default_rng(5)).samples
    assert np.array_equal(pooled, inline)


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


_BAD_VOICE = {"pitch_lo": np.nan, "pitch_hi": np.inf, "n_talkers": 2.5}


@pytest.mark.parametrize("duration_s, sample_rate, key", [
    (np.nan, 16000, "duration_s"),
    (np.inf, 16000, "duration_s"),
    (-np.inf, 16000, "duration_s"),
    (1e-5, 16000, "duration_s"),  # rounds to zero samples
    (2.0, 0, "sample_rate"),
    (2.0, -16000, "sample_rate"),
    (2.0, 16000, "pitch_lo"),
    (2.0, 16000, "pitch_hi"),
    (2.0, 16000, "n_talkers"),
])
def test_babble_rejects_bad_duration_and_rate(duration_s, sample_rate, key):
    # the voice arguments too: key names the one that is bad
    voice = {key: _BAD_VOICE[key]} if key in _BAD_VOICE else {}
    with pytest.raises(FootfallError) as err:
        babble(duration_s, sample_rate, np.random.default_rng(0), **voice)
    bad = {"duration_s": duration_s, "sample_rate": sample_rate, **voice}[key]
    np.testing.assert_equal(err.value.details[key], bad)
