import tracemalloc

import numpy as np
import pytest

from footfall.bss import sdr, sir
from footfall import wiener
from footfall.dsp import Waveform, analyze_padded, stft, synthesize_padded
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona
from footfall.interferers import babble
from footfall.scenes import MicArray, Scene, Trajectory, Walker, render_scene
from footfall.types import Spectrogram
from footfall.wiener import ALPHA, GAIN_FLOOR, wiener_residual_suppress

FS = 16000
RATES = [8000, 16000, 44100, 48000]


def _footsteps(seed=0, duration=8.0):
    persona = FootstepPersona(
        name="ada",
        impact_force_scale=1.0,
        impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.6)),
        step_frequency_mean=1.5,
        step_frequency_var=1e-4,
        speed_mean=0.8,
    )
    walker = Walker(persona, Trajectory(np.array([0.0, duration]),
                                        np.array([[2.0, -4.0], [2.0, 5.0]])))
    scene = Scene(floor=CONCRETE_SLAB, array=MicArray(np.array([[0.0, 0.0]])),
                  walkers=(walker,), voices=(), duration_s=duration,
                  sample_rate=FS, seed=seed)
    _, truth = render_scene(scene)
    return truth.footstep_mix()[0]


def _noisy_pair(seed, snr_db, duration=8.0):
    """Footsteps in babble, plus a clip of the same babble for the profile."""
    foot = _footsteps(seed, duration)
    long_b = babble(duration + 4.0, FS, np.random.default_rng(seed + 500))
    floor_clip = long_b.samples[: 2 * FS]
    noise = long_b.samples[2 * FS : 2 * FS + foot.size]
    k = np.sqrt(np.sum(foot**2) / (np.sum(noise**2) * 10.0 ** (snr_db / 10.0)))
    noisy = Waveform(foot + k * noise, FS)
    profile = stft(Waveform(k * floor_clip, FS), 512, 256)
    return noisy, profile, foot, k * noise


def test_noisy_footsteps_gain_at_least_5db():
    noisy, profile, foot, noise = _noisy_pair(seed=1, snr_db=5.0)
    out = wiener_residual_suppress(noisy, profile)
    gain = sir(out, foot, [noise]) - sir(noisy, foot, [noise])
    assert gain >= 5.0


def test_clean_signal_loses_under_1db():
    noisy, profile, foot, _ = _noisy_pair(seed=1, snr_db=30.0)
    out = wiener_residual_suppress(noisy, profile)
    assert sdr(out, foot) >= sdr(noisy, foot) - 1.0


@pytest.mark.parametrize("rate", RATES)
def test_silence_stays_silence(rate):
    profile = stft(Waveform(0.1 * np.random.default_rng(0).standard_normal(rate), rate),
                   512, 256)
    out = wiener_residual_suppress(Waveform(np.zeros(rate), rate), profile)
    assert np.abs(out.samples).max() == 0.0


def test_noise_alone_is_suppressed_not_gated():
    rng = np.random.default_rng(7)
    long_b = babble(12.0, FS, rng)
    profile = stft(Waveform(long_b.samples[: 2 * FS], FS), 512, 256)
    tail = Waveform(long_b.samples[2 * FS : 10 * FS], FS)
    out = wiener_residual_suppress(tail, profile)
    ratio = np.sqrt(np.mean(out.samples ** 2)) / np.sqrt(np.mean(tail.samples ** 2))
    assert 0.05 <= ratio <= 0.5


@pytest.mark.parametrize("rate", RATES)
def test_output_length_matches_input(rate):
    n = 3 * rate + 1237
    rng = np.random.default_rng(2)
    noisy = Waveform(rng.standard_normal(n), rate)
    profile = stft(Waveform(rng.standard_normal(rate), rate), 512, 256)
    out = wiener_residual_suppress(noisy, profile)
    assert out.samples.size == n
    assert out.sample_rate == rate
    assert np.all(np.isfinite(out.samples))


def test_sample_rate_mismatch_is_rejected():
    profile = stft(Waveform(np.random.default_rng(0).standard_normal(FS), FS),
                   512, 256)
    with pytest.raises(FootfallError):
        wiener_residual_suppress(Waveform(np.zeros(FS), 2 * FS), profile)



def test_noise_floor_without_frames_is_rejected():
    empty = Spectrogram(values=np.zeros((257, 0), complex), window_len=512, hop=256,
                        sample_rate=FS)
    with pytest.raises(FootfallError) as err:
        wiener_residual_suppress(Waveform(np.ones(FS), FS), empty)
    assert "noise floor" in err.value.message
    assert err.value.details == {"noise_floor_shape": (257, 0)}


def test_noise_floor_without_energy_is_rejected():
    silent = stft(Waveform(np.zeros(FS), FS), 512, 256)
    noisy = Waveform(np.random.default_rng(0).standard_normal(FS), FS)
    with pytest.raises(FootfallError) as err:
        wiener_residual_suppress(noisy, silent)
    assert "noise floor" in err.value.message
    assert err.value.details == {"noise_floor_shape": silent.values.shape}


def _reference_gains(magnitudes, noise):
    """The decision-directed recursion written frame by frame, one array per
    step: the reference for the stage's in-place recursion."""
    power = magnitudes**2
    gains = np.empty_like(power)
    prev_clean = np.zeros(power.shape[0])
    for m in range(power.shape[1]):
        gamma = power[:, m] / noise
        xi = ALPHA * (prev_clean / noise) + (1.0 - ALPHA) * np.maximum(gamma - 1.0, 0.0)
        g = np.maximum(xi / (1.0 + xi), GAIN_FLOOR)
        gains[:, m] = g
        prev_clean = g * g * power[:, m]
    return gains


def _clicks_in_babble(rate, seconds, seed):
    """Decaying clicks 0.6 s apart in babble, and a babble clip for the floor."""
    rng = np.random.default_rng(seed)
    n = int(seconds * rate)
    t = np.arange(int(0.05 * rate)) / rate
    click = np.exp(-t / 0.01) * np.sin(2 * np.pi * 180.0 * t)
    x = babble(seconds + 2.0, rate, rng).samples
    noisy = 0.3 * x[:n]
    for start in range(int(0.2 * rate), n - click.size, int(0.6 * rate)):
        noisy[start : start + click.size] += click
    return Waveform(noisy, rate), stft(Waveform(0.3 * x[n:], rate), 512, 256)


@pytest.mark.parametrize("rate", [16000, 48000])
def test_in_place_recursion_matches_the_per_frame_formula(rate):
    noisy, floor = _clicks_in_babble(rate, 3.0, seed=rate)
    spec, offset = analyze_padded(noisy, 512, 256)
    noise = np.mean(floor.magnitudes**2, axis=1)
    noise = np.maximum(noise, 1e-12 * noise.max())
    want = _reference_gains(spec.magnitudes, noise)
    assert np.max(np.abs(wiener._gains(spec.magnitudes, noise) - want)) <= 1e-12
    assert want.min() >= GAIN_FLOOR and want.max() < 1.0 and np.ptp(want) > 0.5
    masked = Spectrogram(want * spec.values, 512, 256, rate)
    ref = synthesize_padded(masked, offset, noisy.samples.size).samples
    out = wiener_residual_suppress(noisy, floor).samples
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_traced_peak_stays_under_seven_spectrogram_arrays():
    # 10 s at 48 kHz. The stage holds the padded spectrogram (its complex
    # values, two (257, n_frames) float64 arrays), then the gains, then the
    # inverse's frames, window weight and sum: its traced peak is 6.1 such
    # arrays. One more array held for the whole stage, such as stored
    # magnitudes beside the values, passes 7.
    rng = np.random.default_rng(11)
    noisy = Waveform(rng.standard_normal(10 * 48000), 48000)
    floor = stft(Waveform(0.1 * rng.standard_normal(2 * 48000), 48000), 512, 256)
    unit = analyze_padded(noisy, 512, 256)[0].magnitudes.nbytes
    tracemalloc.start()
    try:
        wiener_residual_suppress(noisy, floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.0 * unit, peak / unit
