import numpy as np
import pytest

from footfall import nmf
from footfall.bss import sdr, sir
from footfall.dsp import rms, stft
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona
from footfall.interferers import babble
from footfall.nmf import (
    NmfModel,
    comb_activations,
    nmf_fit,
    nmf_separate,
    onset_comb,
    source_masks,
)
from footfall.scenes import AirSource, MicArray, Scene, Trajectory, Walker, render_scene
from footfall.wiener import wiener_residual_suppress

FS = 16000
PACE = 1.5


def _persona():
    return FootstepPersona(
        name="ada",
        impact_force_scale=1.0,
        impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.6)),
        step_frequency_mean=PACE,
        step_frequency_var=1e-4,
        speed_mean=0.8,
    )


def _mix_parts(seed=0, sir_db=0.0, duration=8.0, fs=FS):
    """Mixture channel plus its clean footstep and voice stems."""
    walker = Walker(_persona(), Trajectory(np.array([0.0, duration]),
                                           np.array([[2.0, -4.0], [2.0, 5.0]])))
    voices = ()
    if sir_db is not None:
        voices = (AirSource(babble(duration, fs, np.random.default_rng(seed + 1000)),
                            [4.0, 1.0]),)
    scene = Scene(floor=CONCRETE_SLAB, array=MicArray(np.array([[0.0, 0.0]])),
                  walkers=(walker,), voices=voices, target_sir_db=sir_db,
                  duration_s=duration, sample_rate=fs, seed=seed)
    out, truth = render_scene(scene)
    voice = truth.voice_stem[0] if truth.voice_stem is not None else None
    return out.channel(0), truth.footstep_mix()[0], voice


def _random_power(q=48, p=160, seed=5):
    return np.random.default_rng(seed).uniform(0.05, 1.0, size=(q, p))


def test_divergence_never_rises():
    _, track = nmf_fit(_random_power(), 20.0, r_foot=2, r_voice=4, iters=50,
                       rng=np.random.default_rng(1))
    worst = np.max(np.diff(track))
    assert worst <= 1e-9 * max(1.0, abs(track[0]))


def test_divergence_never_rises_with_pinned_templates():
    power = _random_power(seed=6)
    rng = np.random.default_rng(2)
    voice_w = rng.uniform(0.1, 1.0, size=(48, 4))
    voice_w /= voice_w.sum(axis=0, keepdims=True)
    _, track = nmf_fit(power, 20.0, r_foot=2, r_voice=4, iters=50, rng=rng,
                       voice_w=voice_w)
    assert np.max(np.diff(track)) <= 1e-9 * max(1.0, abs(track[0]))


def test_masks_are_complementary():
    model, _ = nmf_fit(_random_power(), 20.0, r_foot=2, r_voice=4, iters=30,
                       rng=np.random.default_rng(3))
    mask_foot, mask_voice = source_masks(model)
    assert np.abs(mask_foot + mask_voice - 1.0).max() < 1e-9
    assert mask_foot.min() >= 0.0 and mask_voice.min() >= 0.0


@pytest.mark.parametrize("fs", [16000, 48000])
def test_stems_sum_to_the_mixture(fs):
    mix, _, _ = _mix_parts(seed=3, sir_db=0.0, duration=6.0, fs=fs)
    foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(3))
    assert foot.samples.size == mix.samples.size
    assert voice.samples.size == mix.samples.size
    assert rms(foot.samples + voice.samples - mix.samples) < 1e-6


@pytest.mark.parametrize("duration", [4.0, 8.0])  # blind and pinned-template branch
def test_separation_and_cleanup_are_bitwise_deterministic(duration):
    mix, _, _ = _mix_parts(seed=4, sir_db=0.0, duration=duration)
    runs = []
    for _ in range(2):
        foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(4))
        final = wiener_residual_suppress(foot, stft(voice, 512, 256))
        runs.append((foot.samples, voice.samples, final.samples))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, template_fits", [(3, 0), (4, 2)], ids=["blind", "pinned"])
def test_interference_at_equal_level_is_pushed_down_10db(monkeypatch, seed, template_fits):
    calls = []
    fit = nmf.voice_templates

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(nmf, "voice_templates", counted)
    mix, foot_clean, voice_clean = _mix_parts(seed=seed, sir_db=0.0)
    foot, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(seed))
    assert len(calls) == template_fits
    gain = sir(foot, foot_clean, [voice_clean]) - sir(mix, foot_clean, [voice_clean])
    assert gain >= 10.0


def test_zero_voice_mixture_passes_through():
    mix, _, _ = _mix_parts(seed=0, sir_db=None)
    foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    # footstep stem keeps essentially the whole signal and its energy
    assert sdr(foot, mix) >= 30.0
    de = 10.0 * np.log10(np.sum(foot.samples**2) / np.sum(mix.samples**2))
    assert abs(de) <= 0.1
    assert rms(voice) < 0.05 * rms(mix)


def test_comb_activations_bump_once_per_period():
    rows = comb_activations(200, 25.0, 2, np.random.default_rng(0))
    assert rows.shape == (2, 200)
    # bump tops at period multiples, floor in between (first component)
    assert rows[0, ::25].min() > 0.8
    assert rows[0, 12::25].max() < 0.1


def test_onset_comb_opens_windows_only_at_impacts():
    rng = np.random.default_rng(4)
    power = np.full((16, 300), 0.01)
    onsets = [40, 100, 160, 220, 280]
    for k in onsets:
        power[:, k] = 1.0
        power[:, k + 1] = 0.4
    h = onset_comb(power, 60.0, 3, rng)
    assert h.shape == (3, 300)
    for k in onsets:
        assert h[:, k].min() > 0.0
    # far from every onset the hard zeros keep the components silenced
    assert np.all(h[:, 10:30] == 0.0)
    assert np.all(h[:, 70:90] == 0.0)


def test_model_validation_rejects_bad_state():
    w = np.full((8, 3), 1.0 / 8.0)
    h = np.ones((3, 5))
    NmfModel(w=w, h=h, r_footstep=1, r_voice=2)  # sane baseline
    with pytest.raises(FootfallError):
        NmfModel(w=w, h=-h, r_footstep=1, r_voice=2)
    with pytest.raises(FootfallError):
        NmfModel(w=2.0 * w, h=h, r_footstep=1, r_voice=2)
    with pytest.raises(FootfallError):
        NmfModel(w=w, h=h, r_footstep=2, r_voice=2)


def test_fit_rejects_bad_inputs():
    with pytest.raises(FootfallError):
        nmf_fit(_random_power(), 20.0, r_foot=0, r_voice=4)
    with pytest.raises(FootfallError):
        nmf_fit(np.zeros((8, 10)), 20.0)
    bad = _random_power()
    bad[3, 4] = np.nan
    with pytest.raises(FootfallError):
        nmf_fit(bad, 20.0)


def test_diverged_fit_reports_the_iteration():
    power = np.random.default_rng(0).uniform(0.5, 1.0, size=(64, 100))
    power[::2] *= 1e300  # dynamic range overflows the update ratios
    with pytest.raises(FootfallError) as err:
        nmf_fit(power, 20.0, iters=30, rng=np.random.default_rng(1))
    assert "iteration" in err.value.details
