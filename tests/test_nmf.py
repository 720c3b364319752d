import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from footfall import nmf
from footfall.bss import sdr, sir
from footfall.dsp import analyze_padded, stft
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB, WOOD_JOIST
from footfall.footsteps import FootstepPersona
from footfall.interferers import babble, pink_noise
from footfall.nmf import is_divergence, nmf_fit, nmf_separate, voice_templates
from footfall.scenes import (
    AirSource,
    MicArray,
    Scene,
    Trajectory,
    Walker,
    natural_walk,
    render_scene,
)
from footfall.types import Waveform
from footfall.wiener import wiener_residual_suppress

FS = 16000
PACE = 1.5


def _rms(x):
    return np.sqrt(np.mean(x * x))


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


def _comb(power):
    """_onset_comb's footstep start for power; random power has no clear
    impact, so it opens every frame."""
    return nmf._onset_comb(power, 20.0, np.random.default_rng(0))


@pytest.fixture(scope="module", params=[16000, 48000, 44100, 8000])
def babble_mix(request):
    """A 0 dB babble mixture at 16, 48, 44.1 and 8 kHz."""
    mix, _, _ = _mix_parts(seed=3, sir_db=0.0, duration=6.0, fs=request.param)
    return mix


def _power(mix, scale=1.0):
    """Power spectrogram of the scaled mixture, as nmf_separate forms it."""
    spec, _ = analyze_padded(Waveform(scale * mix.samples, mix.sample_rate), 512, 256)
    return spec.magnitudes**2


def _count_template_fits(monkeypatch):
    """Calls of nmf.voice_templates from here on: 0 in the blind branch, 2 pinned."""
    calls = []
    fit = nmf.voice_templates

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(nmf, "voice_templates", counted)
    return calls


def _branch_start(power, period, branch):
    """nmf_fit starts of one branch: blind, or voice templates pinned."""
    rng = np.random.default_rng(3)
    start = {}
    if branch == "pinned":
        start["voice_w"] = voice_templates(power[:, nmf._step_free_frames(power)], rng=rng)
    start["foot_h"] = nmf._onset_comb(power, period, rng)
    return start


def _sweep_counts(monkeypatch):
    """Sweeps run by each fit from here on."""
    counts = []
    sweeps = nmf._mu_sweeps

    def counted(*args):
        track = sweeps(*args)
        counts.append(len(track) - 1)
        return track

    monkeypatch.setattr(nmf, "_mu_sweeps", counted)
    return counts


def _fit_inputs(monkeypatch):
    """A copy of the power each fit sweeps over, from here on."""
    seen = []
    sweeps = nmf._mu_sweeps

    def spied(p, *args):
        seen.append(p.copy())
        return sweeps(p, *args)

    monkeypatch.setattr(nmf, "_mu_sweeps", spied)
    return seen


@pytest.fixture(scope="module")
def babble_16k():
    """Power of the 16 kHz babble mixture and its nmf_fit starts per branch."""
    mix, _, _ = _mix_parts(seed=3, sir_db=0.0, duration=6.0)
    power = _power(mix)
    period = FS / 256 / PACE
    return power, {branch: _branch_start(power, period, branch)
                   for branch in ("blind", "pinned")}


def test_converged_fit_stops_after_its_first_small_decrease(babble_16k):
    power, starts = babble_16k
    _, track = nmf_fit(power, rng=np.random.default_rng(3), **starts["pinned"])
    assert len(track) < nmf.ITERS + 1
    decrease = track[:-1] - track[1:]
    assert decrease[-1] <= nmf._TOL * track[-2]
    assert np.all(decrease[:-1] > nmf._TOL * track[:-2])


def test_unconverged_template_fit_runs_every_sweep(monkeypatch, babble_16k):
    power = babble_16k[0]
    counts = _sweep_counts(monkeypatch)
    voice_templates(power[:, nmf._step_free_frames(power)], rng=np.random.default_rng(3))
    assert counts == [nmf.ITERS]


def test_repeated_fit_stops_at_the_same_sweep_with_the_same_model(babble_16k):
    power, starts = babble_16k
    (m1, t1), (m2, t2) = (nmf_fit(power, rng=np.random.default_rng(3), **starts["pinned"])
                          for _ in range(2))
    assert len(t1) == len(t2) < nmf.ITERS + 1
    assert np.array_equal(t1, t2)
    assert np.array_equal(m1.w, m2.w) and np.array_equal(m1.h, m2.h)


def _step_threads(monkeypatch):
    """The threads that run _Half.step from here on."""
    ran_on = set()
    step = nmf._Half.step

    def watched(half, *args):
        ran_on.add(threading.current_thread())
        return step(half, *args)

    monkeypatch.setattr(nmf._Half, "step", watched)
    return ran_on


@pytest.mark.parametrize("branch", ["blind", "pinned"])
def test_fit_gives_the_same_bits_on_the_pool_and_inline(monkeypatch, run_inline, babble_16k,
                                                        branch):
    power, starts = babble_16k
    start = starts[branch]
    assert power.shape[1] >= nmf._SPLIT_FRAMES
    ran_on = _step_threads(monkeypatch)
    before = set(threading.enumerate())
    model, track = nmf_fit(power, rng=np.random.default_rng(3), **start)
    assert threading.current_thread() in ran_on and len(ran_on) == 2
    assert set(threading.enumerate()) <= before  # the pool's worker has exited
    run_inline(nmf)
    inline, inline_track = nmf_fit(power, rng=np.random.default_rng(3), **start)
    assert np.array_equal(track, inline_track)
    assert np.array_equal(model.w, inline.w) and np.array_equal(model.h, inline.h)


@pytest.mark.parametrize("branch", ["blind", "pinned"])
def test_fit_dispatches_to_the_pool_once_per_track_entry(monkeypatch, babble_16k, branch):
    power, starts = babble_16k
    submits = []

    class Counting(ThreadPoolExecutor):
        def submit(self, fn, *args):
            submits.append(fn)
            return super().submit(fn, *args)

    monkeypatch.setattr(nmf, "ThreadPoolExecutor", Counting)
    _, track = nmf_fit(power, rng=np.random.default_rng(3), **starts[branch])
    assert len(submits) == len(track)


def test_fit_under_the_split_frame_count_starts_no_thread(monkeypatch, run_inline):
    power = _random_power(p=nmf._SPLIT_FRAMES - 1)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    ran_on = _step_threads(monkeypatch)
    model, track = nmf_fit(power, _comb(power), rng=np.random.default_rng(1))
    assert started == [] and ran_on == {threading.current_thread()}
    run_inline(nmf)
    inline, inline_track = nmf_fit(power, _comb(power), rng=np.random.default_rng(1))
    assert np.array_equal(track, inline_track)
    assert np.array_equal(model.w, inline.w) and np.array_equal(model.h, inline.h)


def test_concurrent_fits_match_a_lone_fit():
    # three fits at once put three pool workers beside their three calling
    # threads on the cores, and the short switch interval interleaves them far
    # more often than by default; the fits are large enough to be split
    power = _random_power(p=2 * nmf._SPLIT_FRAMES)

    def fit():
        return nmf_fit(power, _comb(power), rng=np.random.default_rng(1))

    lone_model, lone_track = fit()
    results = [None] * 3

    def run(k):
        results[k] = fit()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for result in results:
        assert result is not None
        model, track = result
        assert np.array_equal(track, lone_track)
        assert np.array_equal(model.w, lone_model.w) and np.array_equal(model.h, lone_model.h)


@pytest.mark.parametrize("branch", ["blind", "pinned"])
def test_babble_track_never_rises_and_ends_at_the_model_divergence(babble_mix, branch):
    power = _power(babble_mix)
    period = babble_mix.sample_rate / 256 / PACE
    model, track = nmf_fit(power, rng=np.random.default_rng(3),
                           **_branch_start(power, period, branch))
    assert np.max(np.diff(track)) <= 1e-9 * max(1.0, abs(track[0]))
    # the float32 sweeps' track against the float64 divergence of the result
    final = is_divergence(nmf._floored(power), model.w @ model.h)
    assert abs(track[-1] - final) <= 1e-5 * final


@pytest.mark.parametrize("branch", ["blind", "pinned"])
def test_babble_footstep_mask_does_not_depend_on_the_mixture_level(babble_mix, branch):
    period = babble_mix.sample_rate / 256 / PACE
    start = _branch_start(_power(babble_mix), period, branch)
    masks = []
    for scale in (1.0, 1e-3, 1e3):
        model, _ = nmf_fit(_power(babble_mix, scale), rng=np.random.default_rng(3), **start)
        masks.append(nmf._source_masks(model)[0])
    assert max(np.abs(m - masks[0]).max() for m in masks[1:]) <= 1e-4


def test_divergence_never_rises():
    power = _random_power()
    _, track = nmf_fit(power, _comb(power), rng=np.random.default_rng(1))
    worst = np.max(np.diff(track))
    assert worst <= 1e-9 * max(1.0, abs(track[0]))


def test_divergence_never_rises_with_pinned_templates():
    power = _random_power(seed=6)
    rng = np.random.default_rng(2)
    voice_w = rng.uniform(0.1, 1.0, size=(48, nmf.R_VOICE))
    voice_w /= voice_w.sum(axis=0, keepdims=True)
    _, track = nmf_fit(power, _comb(power), rng=rng, voice_w=voice_w)
    assert np.max(np.diff(track)) <= 1e-9 * max(1.0, abs(track[0]))


def test_masks_are_complementary():
    power = _random_power()
    model, _ = nmf_fit(power, _comb(power), rng=np.random.default_rng(3))
    mask_foot, mask_voice = nmf._source_masks(model)
    assert np.abs(mask_foot + mask_voice - 1.0).max() < 1e-9
    assert mask_foot.min() >= 0.0 and mask_voice.min() >= 0.0


@pytest.mark.parametrize("fs, drop", [
    pytest.param(16000, 0, id="16000"),
    pytest.param(48000, 0, id="48000"),
    pytest.param(44100, 0, id="44100"),
    pytest.param(48000, 1, id="48000-length-not-a-multiple-of-3"),
    pytest.param(8000, 0, id="8000"),
])
def test_stems_sum_to_the_mixture(fs, drop):
    mix, _, _ = _mix_parts(seed=3, sir_db=0.0, duration=6.0, fs=fs)
    mix = Waveform(mix.samples[:mix.samples.size - drop], fs)
    foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(3))
    assert foot.samples.size == mix.samples.size
    assert voice.samples.size == mix.samples.size
    assert _rms(foot.samples + voice.samples - mix.samples) < 1e-6


@pytest.mark.parametrize("duration, fs", [
    pytest.param(4.0, 16000, id="4.0"),  # blind branch
    pytest.param(8.0, 16000, id="8.0"),  # pinned-template branch
    pytest.param(4.0, 8000, id="4.0-8000"),
    pytest.param(8.0, 8000, id="8.0-8000"),
    pytest.param(4.0, 44100, id="4.0-44100"),
    pytest.param(8.0, 44100, id="8.0-44100"),
])
def test_separation_and_cleanup_are_bitwise_deterministic(duration, fs):
    mix, _, _ = _mix_parts(seed=4, sir_db=0.0, duration=duration, fs=fs)
    runs = []
    for _ in range(2):
        foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(4))
        final = wiener_residual_suppress(foot, stft(voice, 512, 256))
        runs.append((foot.samples, voice.samples, final.samples))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_blind_fit_over_babble_is_not_capped(monkeypatch):
    # the mixture of the blind case below: its step-free frames sit at -6.3 dB
    counts = _sweep_counts(monkeypatch)
    mix, _, _ = _mix_parts(seed=3, sir_db=0.0)
    nmf_separate(mix, PACE, rng=np.random.default_rng(3))
    assert len(counts) == 1 and counts[0] > nmf.QUIET_ITERS


@pytest.mark.parametrize("fs", [16000, 48000])
def test_blind_fit_over_a_weak_voice_is_not_capped(monkeypatch, fs):
    # 20 dB SIR babble: the step-free frames are as weak as pink noise at
    # 20 dB SNR, but the voice swings from syllable to pause
    counts = _sweep_counts(monkeypatch)
    mix, _, _ = _mix_parts(seed=1, sir_db=20.0, duration=4.0, fs=fs)
    nmf_separate(mix, PACE, rng=np.random.default_rng(1))
    monkeypatch.setattr(nmf, "_STATIONARY_GAP", np.inf)  # the level alone would cap it
    nmf_separate(mix, PACE, rng=np.random.default_rng(1))
    assert len(counts) == 2 and counts[0] > nmf.QUIET_ITERS >= counts[1]


def test_stationarity_gap_reads_euler_gamma_on_noise_at_any_level():
    noise = Waveform(pink_noise(4 * FS, np.random.default_rng(0)), FS)
    power = stft(noise, 512, 256).magnitudes**2
    gap = nmf._stationarity_gap(power)
    assert abs(gap - np.euler_gamma) < 0.05
    assert nmf._stationarity_gap(1e-4 * power) == pytest.approx(gap, abs=1e-9)
    assert gap <= nmf._STATIONARY_GAP


def test_capture_without_step_free_frames_separates_without_a_warning():
    mix = Waveform(np.random.default_rng(0).standard_normal(FS // 5), FS)
    assert not nmf._step_free_frames(_power(mix)).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    assert _rms(foot.samples + voice.samples - mix.samples) < 1e-6


@pytest.mark.parametrize("seed, fs, template_fits", [
    pytest.param(3, FS, 0, id="blind"),
    pytest.param(4, FS, 2, id="pinned"),
    # separated on 16 kHz frames, the 6-frame guard leaves step-free frames
    pytest.param(0, 8000, 2, id="pinned-8000"),
])
def test_interference_at_equal_level_is_pushed_down_10db(monkeypatch, seed, fs, template_fits):
    calls = _count_template_fits(monkeypatch)
    mix, foot_clean, voice_clean = _mix_parts(seed=seed, sir_db=0.0, fs=fs)
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
    assert _rms(voice.samples) < 0.05 * _rms(mix.samples)


def test_blind_branch_keeps_a_late_starting_walk_in_the_footstep_stem(monkeypatch):
    # no interference at all, and steps out of phase with frame 0: a fit
    # started from bumps at period multiples of frame 0 left them in the
    # voice stem
    calls = _count_template_fits(monkeypatch)
    walker = natural_walk(_persona(), [2.0, -3.0], [2.0, 3.0], np.random.default_rng(0),
                          start_time=0.5)
    scene = Scene(floor=WOOD_JOIST, array=MicArray(np.array([[0.0, 0.0]])),
                  walkers=(walker,), duration_s=4.0, sample_rate=48000, seed=0)
    out, truth = render_scene(scene)
    mix, clean = out.channel(0), truth.footstep_mix()[0]
    foot, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    assert not calls
    assert sdr(foot, clean) >= 5.0
    assert _rms(foot.samples) >= 0.8 * _rms(mix.samples)


WALK_RATES = (8000, 16000, 44100, 48000)


def _wood_walk(seed, fs, snr_db):
    """Mixture and clean footstep stem of a 4 s WOOD_JOIST walk in pink
    noise at snr_db (none when None)."""
    walker = natural_walk(_persona(), [2.0, -3.0], [2.0, 3.0],
                          np.random.default_rng(seed), start_time=0.5)
    noise = {} if snr_db is None else {"noise_kind": "pink", "target_snr_db": snr_db}
    scene = Scene(floor=WOOD_JOIST, array=MicArray(np.array([[0.0, 0.0]])),
                  walkers=(walker,), duration_s=4.0, sample_rate=fs, seed=seed, **noise)
    out, truth = render_scene(scene)
    return out.channel(0), truth.footstep_mix()[0]


@pytest.fixture(scope="module")
def wood_walks():
    """{(seed, fs): (mixture, clean footstep stem)} of the 20 dB SNR walk,
    seeds 0-2, rendered at every rate of WALK_RATES."""
    return {(seed, fs): _wood_walk(seed, fs, 20.0) for seed in range(3) for fs in WALK_RATES}


def test_blind_fit_over_a_weak_noise_floor_is_capped(monkeypatch, wood_walks):
    counts = _sweep_counts(monkeypatch)
    for (seed, fs), (mix, _) in wood_walks.items():
        counts.clear()
        nmf_separate(mix, PACE, rng=np.random.default_rng(seed))
        assert len(counts) == 1 and counts[0] <= nmf.QUIET_ITERS, (seed, fs)


@pytest.mark.parametrize("snr_db", [30.0, None], ids=["pink-30db", "noise-free"])
def test_capped_blind_fit_loses_at_most_half_a_db(monkeypatch, snr_db):
    mix, clean = _wood_walk(0, 48000, snr_db)
    counts = _sweep_counts(monkeypatch)
    cap = nmf.QUIET_ITERS
    foot, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    assert counts == [cap]  # the cap ended the fit, not _TOL
    monkeypatch.setattr(nmf, "QUIET_ITERS", nmf.ITERS)
    reference, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    assert counts[1] > cap
    assert sdr(foot, clean) >= sdr(reference, clean) - 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_footstep_stem_quality_does_not_depend_on_the_capture_rate(wood_walks, seed):
    # every capture is separated at 16 kHz, so its frames, guards and onset
    # tail span the same time at every capture rate
    quality = {}
    for fs in WALK_RATES:
        mix, clean = wood_walks[seed, fs]
        foot, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(seed))
        quality[fs] = sdr(foot, clean)
    assert min(quality.values()) >= 20.0, quality
    assert max(abs(q - quality[16000]) for q in quality.values()) <= 3.0, quality


def test_fast_captures_are_fitted_on_the_16k_frames(monkeypatch, wood_walks):
    inputs = _fit_inputs(monkeypatch)
    frames = analyze_padded(wood_walks[0, 16000][0], 512, 256)[0].n_frames
    for fs in WALK_RATES:
        inputs.clear()
        nmf_separate(wood_walks[0, fs][0], PACE, rng=np.random.default_rng(0))
        assert inputs
        assert [p.shape[1] for p in inputs] == [frames] * len(inputs), fs


def test_onset_comb_opens_windows_only_at_impacts():
    rng = np.random.default_rng(4)
    power = np.full((16, 300), 0.01)
    onsets = [40, 100, 160, 220, 280]
    for k in onsets:
        power[:, k] = 1.0
        power[:, k + 1] = 0.4
    h = nmf._onset_comb(power, 60.0, rng)
    assert h.shape == (nmf.R_FOOTSTEP, 300)
    for k in onsets:
        assert h[:, k].min() > 0.0
    # far from every onset the hard zeros keep the components silenced
    assert np.all(h[:, 10:30] == 0.0)
    assert np.all(h[:, 70:90] == 0.0)


def test_onset_comb_without_a_clear_impact_opens_every_frame():
    power = _random_power()  # no frame reaches twice the 40% quantile
    h = nmf._onset_comb(power, 20.0, np.random.default_rng(0))
    jitter = np.random.default_rng(0).uniform(0.9, 1.1, size=h.shape)
    assert np.array_equal(h, jitter)


@pytest.mark.parametrize("power", [np.zeros((4, 100)), np.full((4, 100), 0.5)],
                         ids=["zeros", "constant"])
def test_onset_comb_on_a_flat_power_opens_every_frame(power):
    # no frame stands above twice the 40% quantile, so no tie picks an onset
    h = nmf._onset_comb(power, 20.0, np.random.default_rng(0))
    jitter = np.random.default_rng(0).uniform(0.9, 1.1, size=h.shape)
    assert np.array_equal(h, jitter)


@pytest.mark.parametrize("iters", [0, 2.5, None, True])
def test_fit_rejects_a_bad_sweep_cap(iters):
    with pytest.raises(FootfallError) as err:
        nmf_fit(_random_power(), _comb(_random_power()), iters=iters)
    # a value that is not a number is shown as its repr
    assert err.value.details == {"iters": iters if type(iters) in (int, float) else repr(iters)}


def test_fit_rejects_bad_inputs():
    with pytest.raises(FootfallError):
        nmf_fit(np.zeros((8, 10)), np.ones((nmf.R_FOOTSTEP, 10)))
    bad = _random_power()
    foot_h = _comb(bad)
    bad[3, 4] = np.nan
    with pytest.raises(FootfallError):
        nmf_fit(bad, foot_h)


@pytest.mark.parametrize("kind", ["complex", "nan", "negative", "1-d", "str"])
def test_fit_rejects_a_power_that_is_not_a_real_nonnegative_matrix(kind):
    power = _random_power()
    foot_h = _comb(power)
    bad = {"complex": power + 1j * power, "nan": np.where(power > 0.9, np.nan, power),
           "negative": -power, "1-d": power[0], "str": "abc"}[kind]
    with pytest.raises(FootfallError) as err:
        nmf_fit(bad, foot_h)
    assert err.value.details["argument"] == "power"


def _noise_mix():
    return Waveform(np.random.default_rng(0).standard_normal(FS), FS)


@pytest.mark.parametrize("step_freq", [float("nan"), float("inf"), -float("inf"), 0.0, "1.5",
                                       1e-310])
def test_separate_rejects_non_finite_or_non_positive_step_freq(step_freq):
    with pytest.raises(FootfallError) as err:
        nmf_separate(_noise_mix(), step_freq)
    assert "step_freq" in err.value.details


def _pinned_start(seed=2):
    """A legal voice_w and foot_h for _random_power()."""
    voice_w = np.random.default_rng(seed).uniform(0.1, 1.0, size=(48, nmf.R_VOICE))
    voice_w /= voice_w.sum(axis=0, keepdims=True)
    return voice_w, np.ones((nmf.R_FOOTSTEP, 160))


def test_diverged_fit_reports_the_iteration():
    voice_w, foot_h = _pinned_start()
    voice_w[5] = 0.0  # no pinned template reaches bin 5 ...
    voice_w /= voice_w.sum(axis=0, keepdims=True)
    foot_h[:] = 0.0  # ... and the footstep share is silent, so v is 0 there
    with pytest.raises(FootfallError) as err:
        nmf_fit(_random_power(), foot_h, rng=np.random.default_rng(1), voice_w=voice_w)
    assert err.value.details == {"iteration": 1}


def test_huge_dynamic_range_fits_with_a_track_that_never_rises():
    power = np.random.default_rng(0).uniform(0.5, 1.0, size=(64, 100))
    power[::2] *= 1e300
    _, track = nmf_fit(power, _comb(power), rng=np.random.default_rng(1))
    assert np.all(np.isfinite(track))
    assert np.max(np.diff(track)) <= 1e-9 * max(1.0, abs(track[0]))


@pytest.mark.parametrize("name, entry", [("voice_w", np.nan), ("voice_w", -0.01),
                                         ("voice_w", None), ("foot_h", np.inf),
                                         ("foot_h", -0.01)],
                         ids=["voice_w-nan", "voice_w-negative", "voice_w-not-unit-L1",
                              "foot_h-inf", "foot_h-negative"])
def test_fit_rejects_bad_pinned_starts_by_name(monkeypatch, name, entry):
    monkeypatch.setattr(nmf, "_mu_sweeps", None)  # rejected before any sweep
    start = dict(zip(("voice_w", "foot_h"), _pinned_start()))
    if entry is None:
        start[name] *= 1.01  # every column sums to 1.01
    else:
        start[name][3, 4] = entry
    with pytest.raises(FootfallError) as err:
        nmf_fit(_random_power(), **start)
    assert err.value.details["argument"] == name
    assert name in err.value.message


@pytest.mark.parametrize("fs, seed, duration, sir_db, branch", [
    (16000, 3, 6.0, 0.0, "blind"),
    (16000, 4, 8.0, 0.0, "pinned"),
    (48000, 3, 6.0, 10.0, "blind"),
    (48000, 3, 6.0, 0.0, "pinned"),
    (8000, 4, 8.0, 0.0, "blind"),
    (8000, 3, 8.0, 0.0, "pinned"),
    (44100, 3, 6.0, 10.0, "blind"),
    (44100, 4, 8.0, 0.0, "pinned"),
])
def test_separation_does_not_depend_on_the_mixture_level(monkeypatch, fs, seed, duration,
                                                          sir_db, branch):
    calls = _count_template_fits(monkeypatch)
    inputs = _fit_inputs(monkeypatch)
    mix, _, _ = _mix_parts(seed=seed, sir_db=sir_db, duration=duration, fs=fs)
    foot, _ = nmf_separate(mix, PACE, rng=np.random.default_rng(seed))
    assert ("pinned" if calls else "blind") == branch
    fits = len(inputs)
    for scale in (1e-3, 1e3):
        scaled, _ = nmf_separate(Waveform(scale * mix.samples, fs), PACE,
                                 rng=np.random.default_rng(seed))
        dev = np.abs(scaled.samples / scale - foot.samples).max()
        assert dev <= 1e-9 * np.abs(foot.samples).max()
    # every fit, the refinement pass's included, sweeps the same bits at every level
    assert len(inputs) == 3 * fits
    for k in range(fits):
        assert np.array_equal(inputs[k], inputs[fits + k])
        assert np.array_equal(inputs[k], inputs[2 * fits + k])


def test_separate_rejects_a_silent_mixture():
    for fs in (8000, FS, 48000):
        with pytest.raises(FootfallError) as err:
            nmf_separate(Waveform(np.zeros(fs), fs), PACE)
        assert err.value.details == {"peak": 0.0}, fs


def _odd_input(kind, fs):
    """A degenerate capture at fs: constant, hard-clipped or one sample long."""
    if kind == "dc":
        return np.full(fs, 0.5)
    if kind == "clipped":
        mix, _, _ = _mix_parts(seed=3, sir_db=0.0, duration=4.0, fs=fs)
        top = 0.1 * np.abs(mix.samples).max()
        return np.clip(mix.samples, -top, top)
    return np.array([0.7])


@pytest.mark.parametrize("fs", [8000, 16000, 48000])
@pytest.mark.parametrize("kind", ["dc", "clipped", "single-sample"])
def test_degenerate_captures_separate_into_stems_that_sum_to_them(kind, fs):
    mix = Waveform(_odd_input(kind, fs), fs)
    foot, voice = nmf_separate(mix, PACE, rng=np.random.default_rng(0))
    assert foot.samples.size == voice.samples.size == mix.samples.size
    assert np.all(np.isfinite(foot.samples)) and np.all(np.isfinite(voice.samples))
    assert _rms(foot.samples + voice.samples - mix.samples) < 1e-6
