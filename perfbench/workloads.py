"""Seeded inputs for the four benchmark workloads.

Everything a run needs is rendered here, before any timing starts: the
captures the analysis chain will see, their ground truth, the clip banks the
detector's mixtures are fitted on, and the single-walker scenes the
identification net trains on. The same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from footfall.floors import CONCRETE_SLAB, WOOD_JOIST
from footfall.footsteps import FootstepPersona, synth_footstep
from footfall.interferers import babble, pink_noise
from footfall.scenes import AirSource, MicArray, Scene, natural_walk, render_scene

from spans import NullTracer

# Two users for identification; the third only walks in synthesis scenes.
PERSONAS = (
    FootstepPersona("ada", 1.0, 0.002,
                    ((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.6)),
                    step_frequency_mean=1.5, step_frequency_var=1e-4, speed_mean=0.8),
    FootstepPersona("bo", 1.3, 0.004,
                    ((55.0, 25.0, 1.0), (180.0, 50.0, 0.9), (620.0, 90.0, 0.5)),
                    step_frequency_mean=1.8, step_frequency_var=1e-4, speed_mean=0.9),
)
THIRD = FootstepPersona("cy", 0.9, 0.003,
                        ((90.0, 35.0, 0.9), (310.0, 70.0, 0.7), (1200.0, 150.0, 0.5)),
                        step_frequency_mean=1.2, step_frequency_var=1e-4, speed_mean=0.7)
FLOORS = (CONCRETE_SLAB, WOOD_JOIST)  # identification domains, in label order

SNR_DB = 20.0
SIR_DB = 0.0
N_TALKERS = 4
SQUARE_5CM = np.array([[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]])

TRAIN_SCENE_S = 16.0
TRAIN_RATE = 16000
CLIP_S = 0.25
CLIPS_PER_CLASS = 40


@dataclass(frozen=True)
class Workload:
    """One fixed input mix; `why` says what it exercises."""

    name: str
    why: str
    kind: str             # "analysis" or "synthesis"
    duration_s: float
    sample_rate: int
    floor: object
    walker: bool
    voice: bool
    pool: int             # distinct inputs rendered; captures cycle through them


WORKLOADS = {w.name: w for w in (
    Workload("babble16k", "one walker in 0 dB four-talker babble: the paper's hard case, "
             "pinned-template NMF", "analysis", 10.0, 16000, CONCRETE_SLAB,
             walker=True, voice=True, pool=8),
    Workload("quiet48k", "one walker in pink noise at 48 kHz: blind NMF over 3x the frames, "
             "gate finds the real steps", "analysis", 10.0, 48000, WOOD_JOIST,
             walker=True, voice=False, pool=6),
    Workload("nowalk60s", "60 s of babble with no walker: rhythm test rejects, the front "
             "end and O(P^2) ASACC carry the capture", "analysis", 60.0, 16000,
             CONCRETE_SLAB, walker=False, voice=True, pool=3),
    Workload("synth48k", "dataset synthesis: 3 walkers, 4 mics, babble and noise "
             "rendered at 48 kHz", "synthesis", 10.0, 48000, WOOD_JOIST,
             walker=True, voice=True, pool=16),
)}


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *tags])


@dataclass
class Capture:
    """One rendered analysis input: a mono mixture and its ground truth."""

    mix: object           # Waveform
    truth: object         # GroundTruth


@dataclass
class Banks:
    """Labelled clips for the detector's mixtures and scenes for the ID net."""

    clips: dict = field(default_factory=dict)   # class label -> list of sample arrays
    train_scenes: list = field(default_factory=list)  # (Waveform, GroundTruth, user, domain)


def _walk(persona, rng, duration_s):
    """Straight walk past the array at 1.5-3 m, either direction."""
    x = rng.uniform(1.5, 3.0) * rng.choice([-1.0, 1.0])
    y = 0.5 * duration_s * persona.speed_mean + 1.0
    ends = [[x, -y], [x, y]]
    if rng.random() < 0.5:
        ends.reverse()
    return natural_walk(persona, ends[0], ends[1], rng, start_time=rng.uniform(0.2, 0.8))


def scene_spec(w: Workload, seed: int, index: int) -> Scene:
    """Scene description for input `index`, without its voice source."""
    rng = rng_for(seed, index, 1)
    if w.kind == "synthesis":
        walkers = tuple(_walk(p, rng, w.duration_s) for p in PERSONAS + (THIRD,))
        array = MicArray(SQUARE_5CM)
    else:
        walkers = (_walk(PERSONAS[index % len(PERSONAS)], rng, w.duration_s),) if w.walker else ()
        array = MicArray(np.zeros((1, 2)))
    return Scene(floor=w.floor, array=array, walkers=walkers,
                 noise_kind="pink", target_snr_db=SNR_DB,
                 target_sir_db=SIR_DB if (w.voice and w.walker) else None,
                 duration_s=w.duration_s, sample_rate=w.sample_rate,
                 seed=int(rng.integers(2**31)))


def voice_rng(seed: int, index: int) -> np.random.Generator:
    return rng_for(seed, index, 2)


def synthesize(w: Workload, spec: Scene, seed: int, index: int, tr):
    """Babble for input `index`, then the scene render: the synthesis path.

    Returns (scene, capture, truth); `tr` gets a span around each call.
    """
    if not w.voice:
        with tr.span("scenes.render_scene"):
            return (spec, *render_scene(spec))
    rng = voice_rng(seed, index)
    position = [rng.uniform(-4.0, 4.0), rng.uniform(2.0, 5.0)]
    with tr.span("interferers.babble"):
        talk = babble(w.duration_s, w.sample_rate, rng, n_talkers=N_TALKERS)
    scene = replace(spec, voices=(AirSource(talk, position),))
    with tr.span("scenes.render_scene"):
        return (scene, *render_scene(scene))


def render_capture(w: Workload, seed: int, index: int) -> Capture:
    _, mix, truth = synthesize(w, scene_spec(w, seed, index), seed, index, NullTracer())
    return Capture(mix.channel(0), truth)


def render_banks(w: Workload, seed: int) -> Banks:
    """Detector clip banks at the workload's rate; ID training scenes at 16 kHz."""
    fs = w.sample_rate
    rng = rng_for(seed, 0, 3)
    span = int(CLIP_S * fs)
    banks = Banks()
    foot = []
    for i in range(CLIPS_PER_CLASS):
        persona = PERSONAS[i % 2].perturbed(rng)
        x = synth_footstep(persona, w.floor, rng.uniform(1.5, 3.0), fs).samples[:span]
        foot.append(np.pad(x, (0, span - x.size)))
    talk = babble(CLIP_S * CLIPS_PER_CLASS, fs, rng, n_talkers=N_TALKERS).samples
    banks.clips = {
        "footstep": foot,
        "voice": [talk[i * span:(i + 1) * span] for i in range(CLIPS_PER_CLASS)],
        "noise": [pink_noise(span, rng) for _ in range(CLIPS_PER_CLASS)],
    }
    for user, persona in enumerate(PERSONAS):
        for domain, floor in enumerate(FLOORS):
            srng = rng_for(seed, 100 + 2 * user + domain, 4)
            scene = Scene(floor=floor, array=MicArray(np.zeros((1, 2))),
                          walkers=(_walk(persona, srng, TRAIN_SCENE_S),),
                          noise_kind="pink", target_snr_db=SNR_DB,
                          duration_s=TRAIN_SCENE_S, sample_rate=TRAIN_RATE,
                          seed=int(srng.integers(2**31)))
            mix, truth = render_scene(scene)
            banks.train_scenes.append((mix.channel(0), truth, user, domain))
    return banks
