"""footfall: physically grounded footstep-audio synthesis and passive
walker identification, scored against synthetic ground truth.

Synthesis renders walkers on a dispersive floor under voice babble and
noise, including replay-attack scenes re-emitted from a loudspeaker.
Analysis detects footstep events, tests for a walking rhythm, separates
footsteps from voice, suppresses the residual noise and identifies the
walker. No ranging estimator or replay detector ships."""

__version__ = "0.1.0"

from .bss import sdr, sir
from .errors import FootfallError
from .floors import CONCRETE_SLAB, WOOD_JOIST, FloorMaterial, arrival_gap, dispersion_speed
from .footsteps import FootstepPersona, synth_footstep
from .interferers import babble, pink_noise
from .nmf import nmf_separate
from .wiener import wiener_residual_suppress
from .scenes import (
    AirSource,
    GroundTruth,
    MicArray,
    Scene,
    StepTruth,
    Trajectory,
    Walker,
    emulate_attack,
    natural_walk,
    render_scene,
)
from .types import MultichannelWaveform, Spectrogram, Waveform

__all__ = [
    "AirSource",
    "CONCRETE_SLAB",
    "FloorMaterial",
    "FootfallError",
    "FootstepPersona",
    "GroundTruth",
    "MicArray",
    "MultichannelWaveform",
    "Scene",
    "Spectrogram",
    "StepTruth",
    "Trajectory",
    "WOOD_JOIST",
    "Walker",
    "Waveform",
    "arrival_gap",
    "babble",
    "dispersion_speed",
    "emulate_attack",
    "natural_walk",
    "nmf_separate",
    "pink_noise",
    "render_scene",
    "sdr",
    "sir",
    "synth_footstep",
    "wiener_residual_suppress",
    "__version__",
]
