import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from footfall import scenes
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona, synth_footstep
from footfall.interferers import babble
from footfall.scenes import (
    AirSource,
    MicArray,
    Scene,
    Trajectory,
    Walker,
    emulate_attack,
    natural_walk,
    render_scene,
)
from footfall.types import Waveform

FS = 16000


def _persona(name="ada", force=1.0):
    return FootstepPersona(
        name=name,
        impact_force_scale=force,
        impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.7), (2200.0, 200.0, 0.5)),
    )


def _line(start, end, seconds, t0=0.0):
    return Trajectory(np.array([t0, t0 + seconds]), np.array([start, end]))


def _array():
    return MicArray(np.array([[-0.08, 0.0], [0.08, 0.0]]))


def _walk_scene(seed=0, fs=FS, **kw):
    walker = Walker(_persona(), _line([1.0, 1.0], [1.0, 4.0], 5.0))
    defaults = dict(floor=CONCRETE_SLAB, array=_array(), walkers=(walker,),
                    duration_s=6.0, sample_rate=fs, seed=seed)
    defaults.update(kw)
    return Scene(**defaults)


@pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
def test_render_same_seed_is_bit_identical(fs):
    voice = AirSource(babble(6.0, fs, np.random.default_rng(9)), [3.0, 0.5])
    kw = dict(voices=(voice,), noise_kind="pink", target_snr_db=20.0, target_sir_db=5.0)
    out1, truth1 = render_scene(_walk_scene(seed=4, fs=fs, **kw))
    out2, truth2 = render_scene(_walk_scene(seed=4, fs=fs, **kw))
    assert np.array_equal(out1.samples, out2.samples)
    assert truth1.step_times().tolist() == truth2.step_times().tolist()


@pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
def test_walkers_superpose_exactly(fs):
    wa = Walker(_persona("ada"), _line([1.0, 1.0], [1.0, 4.0], 5.0))
    wb = Walker(_persona("bo", force=1.3), _line([2.5, 0.5], [0.5, 2.5], 5.0))
    base = dict(floor=CONCRETE_SLAB, array=_array(), duration_s=6.0, sample_rate=fs, seed=12)
    joint, truth = render_scene(Scene(walkers=(wa, wb), **base))
    solo_a, _ = render_scene(Scene(walkers=(wa,), **base))
    solo_b, _ = render_scene(Scene(walkers=(wb,), **base))
    stacked = solo_a.samples + solo_b.samples
    rms = np.sqrt(np.mean((joint.samples - stacked) ** 2))
    assert rms <= 1e-6
    assert np.array_equal(truth.stems["ada"], solo_a.samples)


@pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
def test_mixture_is_sum_of_single_footsteps(fs):
    walker = Walker(_persona(), _line([2.0, 1.0], [2.0, 3.0], 4.0),
                    step_times=np.array([0.8, 1.7, 2.5, 3.3]), perturb_steps=False)
    scene = Scene(floor=CONCRETE_SLAB, array=_array(), walkers=(walker,),
                  duration_s=5.0, sample_rate=fs, seed=1)
    out, truth = render_scene(scene)
    manual = np.zeros_like(out.samples)
    for step in truth.steps:
        k = int(round(step.time_s * fs))
        for c, mic in enumerate(scene.array.positions):
            r = float(np.linalg.norm(np.array(step.foot_position) - mic))
            one = synth_footstep(_persona(), CONCRETE_SLAB, r, fs).samples
            seg = one[: manual.shape[1] - k]
            manual[c, k:k + seg.size] += seg
    rms = np.sqrt(np.mean((out.samples - manual) ** 2))
    assert rms <= 1e-6


def _ring(n_mics):
    """n_mics microphones on a 5 cm circle; one sits at its center."""
    if n_mics == 1:
        return MicArray(np.zeros((1, 2)))
    angles = 2.0 * np.pi * np.arange(n_mics) / n_mics
    return MicArray(0.05 * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def _busy_scene(fs=FS, n_mics=4):
    """Two walkers, babble and pink noise: every part of a render at once."""
    wa = Walker(_persona("ada"), _line([1.0, 1.0], [1.0, 4.0], 3.5))
    wb = Walker(_persona("bo", force=1.3), _line([2.5, 0.5], [0.5, 2.5], 3.5))
    voice = AirSource(babble(4.0, fs, np.random.default_rng(9)), [3.0, 0.5])
    return Scene(floor=CONCRETE_SLAB, array=_ring(n_mics), walkers=(wa, wb), voices=(voice,),
                 noise_kind="pink", target_snr_db=20.0, target_sir_db=0.0, duration_s=4.0,
                 sample_rate=fs, seed=7)


def _same_render(a, b):
    (out_a, truth_a), (out_b, truth_b) = a, b
    assert np.array_equal(out_a.samples, out_b.samples)
    assert truth_a.steps == truth_b.steps
    for name, stem in truth_a.stems.items():
        assert np.array_equal(stem, truth_b.stems[name])
    assert np.array_equal(truth_a.voice_stem, truth_b.voice_stem)
    assert np.array_equal(truth_a.noise_stem, truth_b.noise_stem)


@pytest.mark.parametrize("n_mics", [1, 2, 4, 8])
def test_render_invariants_hold_for_1_to_8_microphones(n_mics):
    scene = _busy_scene(n_mics=n_mics)
    out, truth = render_scene(scene)
    assert out.samples.shape == (n_mics, 4 * FS)
    total = truth.footstep_mix() + truth.voice_stem + truth.noise_stem
    assert np.max(np.abs(out.samples - total)) <= 1e-9 * np.max(np.abs(out.samples))
    _same_render((out, truth), render_scene(scene))
    feet = replace(scene, voices=(), noise_kind=None, target_snr_db=None, target_sir_db=None)
    joint, _ = render_scene(feet)
    solo_a, _ = render_scene(replace(feet, walkers=feet.walkers[:1]))
    solo_b, _ = render_scene(replace(feet, walkers=feet.walkers[1:]))
    stacked = solo_a.samples + solo_b.samples
    assert np.sqrt(np.mean((joint.samples - stacked) ** 2)) <= 1e-6
    assert np.array_equal(truth.stems["ada"], solo_a.samples)


@pytest.mark.parametrize("fs", [16000, 48000])
def test_render_gives_the_same_bits_on_the_pool_and_inline(monkeypatch, run_inline, fs):
    scene = _busy_scene(fs)
    ran_on = []
    render_walker = scenes._render_walker

    def watched(*args):
        ran_on.append(threading.current_thread())
        return render_walker(*args)

    monkeypatch.setattr(scenes, "_render_walker", watched)
    before = set(threading.enumerate())
    pooled = render_scene(scene)
    assert len(ran_on) == 2 and threading.current_thread() not in ran_on
    assert set(threading.enumerate()) <= before  # the pool's workers have exited
    run_inline(scenes)
    _same_render(pooled, render_scene(scene))


def test_concurrent_renders_match_a_lone_render():
    # three renders at once put six pool workers on the cores, and the short
    # switch interval interleaves them far more often than by default
    scene = _busy_scene()
    lone = render_scene(scene)
    results = [None] * 3

    def run(k):
        results[k] = render_scene(scene)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    before = set(threading.enumerate())
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
    assert set(threading.enumerate()) <= before
    for result in results:
        assert result is not None
        _same_render(result, lone)


def test_a_walker_error_on_the_pool_reaches_the_caller():
    shrill = FootstepPersona("cy", 1.0, 0.002, ((9000.0, 200.0, 1.0),))  # above 8 kHz Nyquist
    walkers = (Walker(_persona(), _line([1.0, 1.0], [1.0, 4.0], 3.5)),
               Walker(shrill, _line([2.5, 0.5], [0.5, 2.5], 3.5)))
    with pytest.raises(FootfallError) as err:
        render_scene(_walk_scene(walkers=walkers))
    assert err.value.details["persona"] == "cy"
    # it comes ahead of an error that the calling thread raises meanwhile
    voice = AirSource(Waveform(np.zeros(100) + 0.1, 8000), [1.0, 1.0])
    with pytest.raises(FootfallError) as err:
        render_scene(_walk_scene(walkers=walkers, voices=(voice,)))
    assert err.value.details["persona"] == "cy"


@pytest.mark.parametrize("target", [-5.0, 0.0, 7.0])
def test_voice_scaled_to_target_sir(target):
    voice = AirSource(babble(6.0, FS, np.random.default_rng(3)), [3.0, 0.5])
    out, truth = render_scene(_walk_scene(voices=(voice,), target_sir_db=target))
    feet = truth.footstep_mix()
    measured = 10.0 * np.log10(np.sum(feet ** 2) / np.sum(truth.voice_stem ** 2))
    assert abs(measured - target) < 0.5
    assert measured == pytest.approx(truth.achieved_sir_db, abs=1e-9)


def test_noise_scaled_to_target_snr():
    out, truth = render_scene(_walk_scene(noise_kind="pink", target_snr_db=10.0))
    feet = truth.footstep_mix()
    measured = 10.0 * np.log10(np.sum(feet ** 2) / np.sum(truth.noise_stem ** 2))
    assert abs(measured - 10.0) < 0.5
    assert measured == pytest.approx(truth.achieved_snr_db, abs=1e-9)


def test_voice_is_the_snr_reference_without_walkers():
    voice = AirSource(babble(3.0, FS, np.random.default_rng(6)), [3.0, 0.5])
    out, truth = render_scene(_walk_scene(walkers=(), voices=(voice,), duration_s=3.0,
                                          noise_kind="pink", target_snr_db=15.0,
                                          target_sir_db=5.0))
    assert truth.achieved_sir_db is None
    measured = 10.0 * np.log10(np.sum(truth.voice_stem ** 2) / np.sum(truth.noise_stem ** 2))
    assert abs(measured - 15.0) < 0.5
    assert measured == pytest.approx(truth.achieved_snr_db, abs=1e-9)


def test_trajectory_outside_bound_is_rejected():
    scene = _walk_scene()
    bad = Walker(_persona(), _line([60.0, 0.0], [60.0, 2.0], 4.0))
    with pytest.raises(FootfallError):
        render_scene(Scene(floor=CONCRETE_SLAB, array=_array(), walkers=(bad,),
                           duration_s=5.0, sample_rate=FS, seed=0))


def test_step_spacing_is_consistent_with_pace():
    # drawn steps on a constant-speed path: spacing/interval == path speed
    walker = Walker(_persona(), _line([0.5, 0.5], [0.5, 4.5], 5.0))
    _, truth = render_scene(Scene(floor=CONCRETE_SLAB, array=_array(), walkers=(walker,),
                                  duration_s=6.0, sample_rate=FS, seed=21))
    pos = np.array([s.position for s in truth.steps])
    t = truth.step_times()
    assert t.size >= 4
    speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / np.diff(t)
    assert np.all(np.abs(speeds - 0.8) <= 0.05 * 0.8)


def test_natural_walk_strides_match_the_persona():
    persona = FootstepPersona(
        name="cy", impact_force_scale=1.0, impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (900.0, 120.0, 0.7)),
        step_frequency_mean=1.2, step_frequency_var=0.0025,
        speed_mean=0.8,
    )
    walker = natural_walk(persona, [1.0, 0.0], [1.0, 3.4], np.random.default_rng(6))
    stride = persona.speed_mean / persona.step_frequency_mean
    gaps = np.linalg.norm(np.diff(walker.trajectory.positions, axis=0), axis=1)
    # every stride but the final truncated one stays within 5% of nominal
    assert np.all(np.abs(gaps[:-1] - stride) <= 0.05 * stride)
    assert walker.step_times.size == walker.trajectory.times.size - 1


def _clip_walk_reference(persona, start, end, rng, start_time, stride_noise):
    """natural_walk's step loop written with np.clip."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    length = float(np.linalg.norm(end - start))
    u = (end - start) / length
    stride = persona.speed_mean / persona.step_frequency_mean
    sigma = np.sqrt(persona.step_frequency_var)
    times, dists, d, t = [start_time], [0.0], 0.0, start_time
    while d < length:
        f = float(np.clip(rng.normal(persona.step_frequency_mean, sigma),
                          0.6 * persona.step_frequency_mean,
                          1.6 * persona.step_frequency_mean))
        step = stride * float(np.clip(1.0 + rng.normal(0.0, stride_noise), 0.5, 1.5))
        t += 1.0 / f
        d = min(d + step, length)
        times.append(t)
        dists.append(d)
    return np.array(times), start[None, :] + np.outer(dists, u)


@pytest.mark.parametrize("pace,var,stride_noise", [
    (1.8, 0.0001, 0.015),   # the defaults: the clamps never bind
    (1.8, 0.5, 0.4),        # wide draws: both clamps bind on both sides
    (1.2, 0.0025, 0.015),
    (2.3, 0.3, 0.3),
])
def test_natural_walk_is_bitwise_the_np_clip_loop(pace, var, stride_noise):
    persona = replace(_persona("cy"), step_frequency_mean=pace, step_frequency_var=var)
    for seed in range(5):
        walker = natural_walk(persona, [0.5, -2.0], [1.5, 4.0], np.random.default_rng(seed),
                              start_time=0.3, stride_noise=stride_noise)
        times, positions = _clip_walk_reference(persona, [0.5, -2.0], [1.5, 4.0],
                                                np.random.default_rng(seed), 0.3,
                                                stride_noise)
        assert np.array_equal(walker.trajectory.times, times)
        assert np.array_equal(walker.trajectory.positions, positions)
        assert np.array_equal(walker.step_times, times[1:])


def test_air_source_delay_and_gain_follow_geometry():
    pulse = np.zeros(16)
    pulse[0] = 1.0
    scene = Scene(floor=CONCRETE_SLAB, array=_array(),
                  voices=(AirSource(Waveform(pulse, 48000), [2.0, 0.0]),),
                  duration_s=0.5, sample_rate=48000, seed=0)
    out, _ = render_scene(scene)
    for c, mic in enumerate(scene.array.positions):
        r = float(np.linalg.norm(np.array([2.0, 0.0]) - mic))
        delay = int(round(48000 * r / CONCRETE_SLAB.air_speed))
        assert int(np.argmax(np.abs(out.samples[c]))) == delay
        assert out.samples[c, delay] == pytest.approx(1.0 / r, rel=1e-12)


def test_voice_sample_rate_mismatch_is_rejected():
    voice = AirSource(Waveform(np.zeros(100) + 0.1, 8000), [1.0, 1.0])
    with pytest.raises(FootfallError):
        render_scene(_walk_scene(voices=(voice,)))


def test_ground_truth_serializes_to_json():
    _, truth = render_scene(_walk_scene())
    blob = json.loads(json.dumps(truth.to_dict()))
    assert blob["sample_rate"] == FS
    assert blob["replayed"] is False
    assert len(blob["steps"]) == len(truth.steps)
    first = blob["steps"][0]
    assert set(first) == {"time_s", "persona", "position", "foot_position"}


def test_replay_attack_scene_is_static_and_marked():
    scene = _walk_scene(seed=8)
    attack = emulate_attack(scene, [0.0, 0.0], [2.0, 2.0])
    assert attack.replayed and not attack.walkers and len(attack.voices) == 1
    assert np.max(np.abs(attack.voices[0].waveform.samples)) == pytest.approx(1.0)
    out1, truth = render_scene(attack)
    out2, _ = render_scene(attack)
    assert truth.replayed and truth.steps == []
    assert np.max(np.abs(out1.samples)) > 0
    assert np.array_equal(out1.samples, out2.samples)


@pytest.mark.parametrize("duration_s", [float("nan"), float("inf")])
def test_scene_rejects_a_non_finite_duration(duration_s):
    with pytest.raises(FootfallError) as err:
        _walk_scene(duration_s=duration_s)
    assert np.array_equal(err.value.details["duration_s"], duration_s, equal_nan=True)


@pytest.mark.parametrize("rate", [-16000, 0, 16000.5, float("nan")])
def test_scene_rejects_a_sample_rate_that_is_not_a_positive_whole_number(rate):
    with pytest.raises(FootfallError) as err:
        _walk_scene(fs=rate)
    assert "sample_rate" in err.value.details
    assert type(_walk_scene(fs=16000.0).sample_rate) is int


@pytest.mark.parametrize("make, key", [
    (lambda: _walk_scene(seed=-1), "seed"),
    (lambda: _walk_scene(seed=1.5), "seed"),
    (lambda: _walk_scene(duration_s="1"), "duration_s"),
    (lambda: _walk_scene(voices=(_talk(),), target_sir_db=float("inf")), "target_sir_db"),
    (lambda: _walk_scene(voices=(_talk(),), target_sir_db=-float("inf")), "target_sir_db"),
    (lambda: _walk_scene(noise_kind="pink", target_snr_db=float("nan")), "target_snr_db"),
    (lambda: _walk_scene(noise_kind="white"), "noise_kind"),
    (lambda: natural_walk(_persona(), [0, 0], [1, 0], np.random.default_rng(0), start_time="0"),
     "start_time"),
    (lambda: natural_walk(_persona(), [0, 0], [1, 0], np.random.default_rng(0), stride_noise=-1),
     "stride_noise"),
], ids=["negative-seed", "fractional-seed", "str-duration", "inf-sir", "minus-inf-sir",
        "nan-snr", "white-noise", "str-walk-start", "negative-stride-noise"])
def test_scene_rejects_a_bad_setting_by_name(make, key):
    with pytest.raises(FootfallError) as err:
        make()
    assert key in err.value.details and key in err.value.message


def _talk():
    return AirSource(Waveform(np.full(100, 0.1), FS), [1.0, 1.0])


@pytest.mark.parametrize("make, argument", [
    (lambda: Walker(_persona(), _line([0, 0], [1, 0], 2.0), step_times=[np.nan, 1.0]),
     "step_times"),
    (lambda: Walker(_persona(), _line([0, 0], [1, 0], 2.0), step_times=[[0.5, 1.0]]),
     "step_times"),
    (lambda: MicArray("x"), "positions"),
    (lambda: Trajectory([0.0, 1.0], [[0.0, 0.0], [0.5, np.inf]]), "positions"),
    (lambda: AirSource(Waveform(np.zeros(4), FS), [[1.0, 1.0]]), "position"),
], ids=["nan-step", "2-d-steps", "str-mics", "inf-waypoint", "2-d-source"])
def test_scene_parts_reject_an_array_that_is_not_finite_or_of_the_wrong_shape(make, argument):
    with pytest.raises(FootfallError) as err:
        make()
    assert err.value.details["argument"] == argument


@pytest.mark.parametrize("width", [float("nan"), -0.1, 0.6])
def test_walker_rejects_a_stance_width_outside_0_to_half_a_metre(width):
    with pytest.raises(FootfallError) as err:
        Walker(_persona(), _line([0, 0], [1, 0], 2.0), stance_width=width)
    assert "stance_width" in err.value.details


def test_scene_validation_catches_bad_setups():
    with pytest.raises(FootfallError):
        Scene(floor=CONCRETE_SLAB, array=_array(),
              walkers=(Walker(_persona("x"), _line([0, 0], [1, 0], 2.0)),
                       Walker(_persona("x"), _line([1, 1], [2, 1], 2.0))),
              duration_s=3.0, sample_rate=FS, seed=0)
    with pytest.raises(FootfallError):
        Walker(_persona(), _line([0, 0], [1, 0], 2.0), step_times=np.array([1.0, 0.5]))
    with pytest.raises(FootfallError):
        MicArray(np.array([[0.0, 0.0], [0.3, 0.0]]))  # aperture over 0.2 m
    with pytest.raises(FootfallError):
        MicArray(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(FootfallError):
        Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [4.0, 0.0]]))  # 4 m/s
    with pytest.raises(FootfallError):
        Trajectory(np.array([1.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))
