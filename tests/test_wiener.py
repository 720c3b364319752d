import numpy as np
import pytest

from footfall.bss import sdr, sir
from footfall.dsp import Waveform, rms, stft
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona
from footfall.interferers import babble
from footfall.scenes import MicArray, Scene, Trajectory, Walker, render_scene
from footfall.wiener import wiener_residual_suppress

FS = 16000


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


def test_silence_stays_silence():
    profile = stft(Waveform(0.1 * np.random.default_rng(0).standard_normal(FS), FS),
                   512, 256)
    out = wiener_residual_suppress(Waveform(np.zeros(FS), FS), profile)
    assert np.abs(out.samples).max() == 0.0


def test_noise_alone_is_suppressed_not_gated():
    rng = np.random.default_rng(7)
    long_b = babble(12.0, FS, rng)
    profile = stft(Waveform(long_b.samples[: 2 * FS], FS), 512, 256)
    tail = Waveform(long_b.samples[2 * FS : 10 * FS], FS)
    out = wiener_residual_suppress(tail, profile)
    ratio = rms(out.samples) / rms(tail.samples)
    assert 0.05 <= ratio <= 0.5


def test_output_length_matches_input():
    n = 3 * FS + 1237
    rng = np.random.default_rng(2)
    noisy = Waveform(rng.standard_normal(n), FS)
    profile = stft(Waveform(rng.standard_normal(FS), FS), 512, 256)
    out = wiener_residual_suppress(noisy, profile)
    assert out.samples.size == n
    assert out.sample_rate == FS


def test_sample_rate_mismatch_is_rejected():
    profile = stft(Waveform(np.random.default_rng(0).standard_normal(FS), FS),
                   512, 256)
    with pytest.raises(FootfallError):
        wiener_residual_suppress(Waveform(np.zeros(FS), 2 * FS), profile)

