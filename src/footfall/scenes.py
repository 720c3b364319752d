"""Acoustic scene assembly: walkers on a floor, voices, noise, microphones.

render_scene is the single entry point that turns a Scene description into a
multichannel capture plus its ground truth. Every random draw comes from a
stream keyed by (scene seed, walker name) or (scene seed, purpose tag), so a
walker sounds the same whether it is rendered alone or together with others;
that is what makes the per-walker stems sum exactly to the joint mixture.

Geometry is a 2D floor plane. Each footstep is emitted from the walker's
foot position (centerline plus an alternating lateral stance offset) and
reaches every microphone with its own range: the air path arrives after
range/c_air scaled by 1/range, the structure path is dispersed by the floor.
Voice clips and replayed recordings are static air-only point sources.

The walkers render on a two-worker thread pool, each into a stem that the
calling thread allocated, while the calling thread builds the voice and
noise stems. Each walker draws only from its own stream, and the stems are
added in walker order, so a render gives the same bits on any number of
cores.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FootfallError
from .floors import FloorMaterial
from .footsteps import FootstepPersona, footstep_parts, place_footstep
from .interferers import pink_noise
from .types import (MultichannelWaveform, Waveform, _as_float_array, _as_instances, _as_positive,
                    _as_real, _as_whole, _check_instance)

SCENE_BOUND_M = 50.0
NOISE_KINDS = ("pink",)
_WORKERS = 2  # threads that render the walkers


def _stream(seed: int, tag: str) -> np.random.Generator:
    """Independent generator for one purpose within one scene."""
    digest = hashlib.sha256(tag.encode()).digest()[:8]
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "little")]))


@dataclass
class Trajectory:
    """Piecewise-linear path: positions (k, 2) visited at strictly increasing times."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.times = _as_float_array(self.times, "times", (None,))
        if self.times.size < 1:
            raise FootfallError("trajectory needs at least one waypoint")
        self.positions = _as_float_array(self.positions, "positions", (self.times.size, 2))
        dt = np.diff(self.times)
        if np.any(dt <= 0):
            raise FootfallError("waypoint times must be strictly increasing")
        if dt.size:
            speeds = np.linalg.norm(np.diff(self.positions, axis=0), axis=1) / dt
            if np.any(speeds >= 3.0):
                raise FootfallError("implied speed must stay under 3 m/s",
                                    max_speed=float(speeds.max()))

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def position_at(self, t: float) -> np.ndarray:
        """Linear interpolation, clamped to the endpoints."""
        x = np.interp(t, self.times, self.positions[:, 0])
        y = np.interp(t, self.times, self.positions[:, 1])
        return np.array([x, y])

    def heading_at(self, t: float) -> np.ndarray:
        """Unit travel direction near time t; (0, 1) when standing still."""
        dt = 0.025
        d = self.position_at(t + dt) - self.position_at(t - dt)
        n = np.linalg.norm(d)
        return d / n if n > 1e-12 else np.array([0.0, 1.0])


@dataclass
class MicArray:
    """Planar microphone array, aperture capped at 0.2 m."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = _as_float_array(self.positions, "positions", (None, 2))
        if self.positions.shape[0] < 1:
            raise FootfallError("array needs at least one microphone")
        deltas = self.positions[:, None, :] - self.positions[None, :, :]
        gaps = np.linalg.norm(deltas, axis=2)
        n = self.positions.shape[0]
        if n > 1:
            off = gaps[~np.eye(n, dtype=bool)]
            if off.min() < 1e-6:
                raise FootfallError("microphone positions must be distinct")
            if off.max() > 0.2:
                raise FootfallError("array aperture is capped at 0.2 m",
                                    aperture_m=float(off.max()))

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]


@dataclass
class Walker:
    """A persona following a trajectory.

    step_times: explicit impact instants (s). When None, render_scene draws
    step intervals from the persona's pace statistics along the trajectory.
    stance_width: lateral distance between left and right foot placements.
    perturb_steps: draw small per-step deviations of the impact and modes, so
    repeated steps are similar but not identical.
    """

    persona: FootstepPersona
    trajectory: Trajectory
    step_times: np.ndarray | None = None
    stance_width: float = 0.18
    perturb_steps: bool = True

    def __post_init__(self):
        _check_instance(self.persona, FootstepPersona, "persona")
        _check_instance(self.trajectory, Trajectory, "trajectory")
        if not _as_positive(self.stance_width, "stance_width", zero_ok=True) <= 0.5:
            raise FootfallError("stance width out of range", stance_width=self.stance_width)
        if self.step_times is not None:
            self.step_times = _as_float_array(self.step_times, "step_times", (None,))
            if np.any(np.diff(self.step_times) <= 0):
                raise FootfallError("step times must be strictly increasing")


@dataclass
class AirSource:
    """Static point source that radiates a fixed waveform through air only."""

    waveform: Waveform
    position: np.ndarray

    def __post_init__(self):
        _check_instance(self.waveform, Waveform, "waveform")
        self.position = _as_float_array(self.position, "position", (2,))


@dataclass
class Scene:
    """Complete description of one capture; rendering is pure given the seed."""

    floor: FloorMaterial
    array: MicArray
    walkers: tuple = ()
    voices: tuple = ()
    noise_kind: str | None = None
    target_snr_db: float | None = None
    target_sir_db: float | None = None
    duration_s: float = 10.0
    sample_rate: int = 48000
    seed: int = 0
    replayed: bool = False

    def __post_init__(self):
        _check_instance(self.floor, FloorMaterial, "floor")
        _check_instance(self.array, MicArray, "array")
        self.walkers = _as_instances(self.walkers, Walker, "walkers")
        self.voices = _as_instances(self.voices, AirSource, "voices")
        self.duration_s = _as_positive(self.duration_s, "duration_s")
        self.sample_rate = _as_whole(self.sample_rate, "sample_rate")
        self.seed = _as_whole(self.seed, "seed", zero_ok=True)
        for target in ("target_snr_db", "target_sir_db"):
            if getattr(self, target) is not None:
                setattr(self, target, _as_real(getattr(self, target), target))
        if self.noise_kind is not None and self.noise_kind not in NOISE_KINDS:
            raise FootfallError("noise_kind must be 'pink' or None", noise_kind=self.noise_kind)
        names = [w.persona.name for w in self.walkers]
        if len(set(names)) != len(names):
            raise FootfallError("walker persona names must be unique", names=names)


@dataclass
class StepTruth:
    """One recorded impact: when, who, where."""

    time_s: float
    persona: str
    position: tuple
    foot_position: tuple

    def to_dict(self) -> dict:
        return {"time_s": self.time_s, "persona": self.persona,
                "position": list(self.position), "foot_position": list(self.foot_position)}


@dataclass
class GroundTruth:
    """Everything the scorer may consult: step records, stems, mix levels."""

    sample_rate: int
    duration_s: float
    steps: list
    stems: dict = field(default_factory=dict)
    voice_stem: np.ndarray | None = None
    noise_stem: np.ndarray | None = None
    achieved_snr_db: float | None = None
    achieved_sir_db: float | None = None
    replayed: bool = False

    def step_times(self, persona: str | None = None) -> np.ndarray:
        times = [s.time_s for s in self.steps if persona is None or s.persona == persona]
        return np.array(times)

    def footstep_mix(self) -> np.ndarray | None:
        """Sum of the per-walker stems; None when the scene has no walkers."""
        total = None
        for stem in self.stems.values():
            total = stem.copy() if total is None else total + stem
        return total

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "duration_s": self.duration_s,
            "achieved_snr_db": self.achieved_snr_db,
            "achieved_sir_db": self.achieved_sir_db,
            "replayed": self.replayed,
            "steps": [s.to_dict() for s in self.steps],
        }


def _check_bound(pos: np.ndarray, what: str):
    if np.any(np.abs(pos) > SCENE_BOUND_M):
        raise FootfallError(f"{what} exits the {SCENE_BOUND_M:.0f} m scene bound",
                            position=[float(v) for v in np.atleast_1d(pos).ravel()[:2]])


def _draw_step_times(walker: Walker, rng: np.random.Generator, duration_s: float) -> np.ndarray:
    traj = walker.trajectory
    p = walker.persona
    end = min(traj.end_time, duration_s)
    times = []
    t = traj.start_time
    sigma = np.sqrt(p.step_frequency_var)
    while True:
        f = float(np.clip(rng.normal(p.step_frequency_mean, sigma), 0.5, 3.0))
        t += 1.0 / f
        if t >= end:
            break
        times.append(t)
    return np.array(times)


def _render_walker(walker: Walker, scene: Scene, out: np.ndarray) -> list:
    """Mix one walker into out (n_mics, n); returns its StepTruth records."""
    rng = _stream(scene.seed, "walker:" + walker.persona.name)
    if walker.step_times is None:
        step_times = _draw_step_times(walker, rng, scene.duration_s)
    else:
        keep = walker.step_times < scene.duration_s
        step_times = walker.step_times[keep]
    fs = scene.sample_rate
    traj = walker.trajectory
    truths = []
    side = 1.0
    for t in step_times:
        center = traj.position_at(t)
        _check_bound(center, "trajectory")
        heading = traj.heading_at(t)
        lateral = np.array([-heading[1], heading[0]])
        foot = center + side * 0.5 * walker.stance_width * lateral
        side = -side
        persona = walker.persona.perturbed(rng) if walker.perturb_steps else walker.persona
        parts = footstep_parts(persona, fs)
        offset = int(round(t * fs))
        for c, mic in enumerate(scene.array.positions):
            r = float(np.linalg.norm(foot - mic))
            place_footstep(parts, scene.floor, r, out=out[c], offset=offset)
        truths.append(StepTruth(float(t), walker.persona.name,
                                tuple(center), tuple(foot)))
    return truths


def _render_air_source(source: AirSource, scene: Scene, out: np.ndarray):
    if source.waveform.sample_rate != scene.sample_rate:
        raise FootfallError("source sample rate must match the scene",
                            source_rate=source.waveform.sample_rate,
                            scene_rate=scene.sample_rate)
    _check_bound(source.position, "source position")
    fs = scene.sample_rate
    n = out.shape[1]
    for c, mic in enumerate(scene.array.positions):
        r = float(np.linalg.norm(source.position - mic))
        if r < 1e-6:
            raise FootfallError("source sits on top of a microphone")
        delay = int(round(fs * r / scene.floor.air_speed))
        if delay >= n:
            continue
        seg = source.waveform.samples[: n - delay]
        out[c, delay:delay + seg.size] += (1.0 / r) * seg


def _energy(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def _air_and_noise(scene: Scene, n: int) -> tuple:
    """The unscaled voice stem and ambient noise stem; None for each one absent."""
    n_mics = scene.array.n_mics
    voice_stem = None
    if scene.voices:
        voice_stem = np.zeros((n_mics, n))
        for source in scene.voices:
            _render_air_source(source, scene, voice_stem)
    noise_stem = None
    if scene.noise_kind is not None:
        rng = _stream(scene.seed, "ambient:" + scene.noise_kind)
        noise_stem = np.stack([pink_noise(n, rng) for _ in range(n_mics)])
    return voice_stem, noise_stem


def render_scene(scene: Scene) -> tuple:
    """Render to (capture, ground_truth).

    Voice and noise stems are scaled so the achieved SIR and SNR hit their
    targets exactly; the reference energy is the footstep mix when walkers
    are present, otherwise the voice mix. Scaling is skipped (and the
    achieved level reported as None) when a target or its reference is
    missing.
    """
    _check_instance(scene, Scene, "scene")
    for w in scene.walkers:
        _check_bound(w.trajectory.positions, "trajectory")
    fs = scene.sample_rate
    n = int(round(scene.duration_s * fs))
    n_mics = scene.array.n_mics

    stems = {w.persona.name: np.zeros((n_mics, n)) for w in scene.walkers}
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        rendered = pool.map(lambda w: _render_walker(w, scene, stems[w.persona.name]),
                            scene.walkers)
        try:
            voice_stem, noise_stem = _air_and_noise(scene, n)
        finally:  # a walker's error comes first, as when walkers rendered first
            steps = [s for truths in rendered for s in truths]
    steps.sort(key=lambda s: s.time_s)
    foot_mix = np.zeros((n_mics, n))
    for stem in stems.values():
        foot_mix += stem

    foot_e = _energy(foot_mix)
    voice_e = _energy(voice_stem) if voice_stem is not None else 0.0
    achieved_sir = None
    if voice_stem is not None and scene.target_sir_db is not None and foot_e > 0:
        want = 10.0 ** (scene.target_sir_db / 10.0)
        voice_stem *= np.sqrt(foot_e / (voice_e * want))
        voice_e = _energy(voice_stem)
        achieved_sir = 10.0 * np.log10(foot_e / voice_e)

    reference_e = foot_e if foot_e > 0 else voice_e
    achieved_snr = None
    if noise_stem is not None and scene.target_snr_db is not None and reference_e > 0:
        want = 10.0 ** (scene.target_snr_db / 10.0)
        noise_stem *= np.sqrt(reference_e / (_energy(noise_stem) * want))
        achieved_snr = 10.0 * np.log10(reference_e / _energy(noise_stem))

    mixture = foot_mix.copy()
    if voice_stem is not None:
        mixture += voice_stem
    if noise_stem is not None:
        mixture += noise_stem

    truth = GroundTruth(
        sample_rate=fs,
        duration_s=scene.duration_s,
        steps=steps,
        stems=stems,
        voice_stem=voice_stem,
        noise_stem=noise_stem,
        achieved_snr_db=achieved_snr,
        achieved_sir_db=achieved_sir,
        replayed=scene.replayed,
    )
    return MultichannelWaveform(mixture, fs), truth


def natural_walk(persona: FootstepPersona, start, end, rng: np.random.Generator,
                 start_time: float = 0.5, stride_noise: float = 0.015) -> Walker:
    """Straight-line walk whose speed is locked to its own step cadence.

    Each interval draws a pace f from the persona's statistics and advances
    one stride (speed_mean / step_frequency_mean, jittered by stride_noise),
    so the per-step speed is stride * f: speed and cadence rise and fall
    together, the signature of a live walker.
    """
    _check_instance(persona, FootstepPersona, "persona")
    _check_instance(rng, np.random.Generator, "rng")
    start = _as_float_array(start, "start", (2,))
    end = _as_float_array(end, "end", (2,))
    start_time = _as_real(start_time, "start_time")
    stride_noise = _as_positive(stride_noise, "stride_noise", zero_ok=True)
    span = end - start
    length = float(np.linalg.norm(span))
    if length < 1e-9:
        raise FootfallError("walk must cover some distance")
    u = span / length
    p = persona
    stride = p.speed_mean / p.step_frequency_mean
    sigma = np.sqrt(p.step_frequency_var)
    times = [start_time]
    dists = [0.0]
    d = 0.0
    t = start_time
    while d < length:
        # min(max()) on Python floats: np.clip would wrap each scalar in an array
        f = min(max(rng.normal(p.step_frequency_mean, sigma),
                    0.6 * p.step_frequency_mean), 1.6 * p.step_frequency_mean)
        step = stride * min(max(1.0 + rng.normal(0.0, stride_noise), 0.5), 1.5)
        t += 1.0 / f
        d = min(d + step, length)
        times.append(t)
        dists.append(d)
    positions = start[None, :] + np.outer(dists, u)
    traj = Trajectory(np.array(times), positions)
    return Walker(persona, traj, step_times=np.array(times[1:]))


def emulate_attack(scene: Scene, attacker_pos, playback_pos) -> Scene:
    """Record the scene at a hidden point, then re-emit it from a loudspeaker.

    The attacker's single microphone hears the walk (structure and air
    components alike, as audio); the returned scene replaces all walkers with
    that recording played back from a static position, normalized to unit
    peak. Ambient noise settings carry over; the result is marked replayed.
    """
    _check_instance(scene, Scene, "scene")
    attacker_pos = _as_float_array(attacker_pos, "attacker_pos", (2,))
    playback_pos = _as_float_array(playback_pos, "playback_pos", (2,))
    tap = replace(scene, array=MicArray(attacker_pos[None, :]),
                  noise_kind=None, voices=())
    recording, _ = render_scene(tap)
    samples = recording.samples[0]
    peak = np.max(np.abs(samples))
    if peak < 1e-12:
        raise FootfallError("nothing to replay; the recording is silent")
    clip = Waveform(samples / peak, scene.sample_rate)
    return replace(
        scene,
        walkers=(),
        voices=(AirSource(clip, playback_pos),),
        target_sir_db=None,
        replayed=True,
    )
