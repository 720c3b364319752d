"""Single-footstep synthesis.

A step excites a bank of damped floor resonances with a short impact pulse.
The listener hears two copies:

  air path        full mode set, delayed by range / c_air, attenuated 1/range
  structure path  the same modes weighted by exp(-f / 800 Hz), one fixed
                  roll-off whatever the floor, and sent through an all-pass
                  dispersive filter whose group delay at frequency f is
                  range / c_f(f), attenuated 1/sqrt(range)

The dispersive filter is a pure phase in the frequency domain, so the
structural path preserves energy exactly before the geometric attenuation.
High frequencies outrun low ones, which turns the click into the low rumble
that precedes the airborne arrival. place_footstep is the one entry to that
filter: footstep_parts makes a step's floor- and range-free templates once,
and place_footstep disperses and mixes them at each microphone's range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from .errors import FootfallError
from .floors import FloorMaterial
from .types import Waveform, _as_positive, _as_whole, _check_instance

# structural coupling rolls off with frequency; air keeps the full mode set
STRUCTURE_LOWPASS_HZ = 800.0
STRUCTURE_GAIN = 0.9
_REFERENCE_IMPACT_S = 0.002
_RING_DECAY = 11.5  # synthesize modes until exp(-d t) ~ 1e-5
_MAX_RING_S = 0.6
_FADE_S = 0.005
# relative spread of each rendered step's impact force, duration and mode amplitudes
_FORCE_JITTER, _DURATION_JITTER, _AMP_JITTER = 0.10, 0.05, 0.06


@dataclass(frozen=True)
class FootstepPersona:
    """Walker-specific synthesis parameters.

    modes is a list of (frequency_hz, damping_per_s, amplitude) resonances the
    walker excites in the floor; they are the identity signature.
    """

    name: str
    impact_force_scale: float
    impact_duration_s: float
    modes: tuple[tuple[float, float, float], ...]
    step_frequency_mean: float = 1.2
    step_frequency_var: float = 0.0025
    speed_mean: float = 0.8

    def __post_init__(self):
        # scalar checks: perturbed() builds a persona for every rendered step
        try:
            _as_positive(self.impact_force_scale, "impact_force_scale", zero_ok=True)
            if not 0.0002 <= _as_positive(self.impact_duration_s, "impact_duration_s") <= 0.05:
                raise FootfallError("impact_duration_s out of range",
                                    impact_duration_s=self.impact_duration_s)
            if not self.modes:
                raise FootfallError("persona needs at least one resonance mode")
            for mode in self.modes:
                try:
                    f, d, a = mode
                except (TypeError, ValueError):
                    raise FootfallError("resonance mode must be a (frequency, damping, amplitude)"
                                        " triple", mode=repr(mode)) from None
                for value, zero_ok in ((f, False), (d, False), (a, True)):
                    _as_positive(value, "mode", zero_ok)
            _as_positive(self.step_frequency_mean, "step_frequency_mean")
            _as_positive(self.step_frequency_var, "step_frequency_var", zero_ok=True)
            _as_positive(self.speed_mean, "speed_mean")
        except FootfallError as err:
            err.details["persona"] = self.name
            raise

    @property
    def max_mode_hz(self) -> float:
        return max(f for f, _, _ in self.modes)

    def perturbed(self, rng: np.random.Generator):
        """Per-step natural variation; draws are consumed in a fixed order."""
        _check_instance(rng, np.random.Generator, "rng")
        force = self.impact_force_scale * (1.0 + _FORCE_JITTER * rng.standard_normal())
        dur = self.impact_duration_s * (1.0 + _DURATION_JITTER * rng.standard_normal())
        modes = tuple(
            (f, d, a * max(0.0, 1.0 + _AMP_JITTER * rng.standard_normal()))
            for f, d, a in self.modes
        )
        return replace(
            self,
            impact_force_scale=max(0.0, force),
            impact_duration_s=float(np.clip(dur, 0.0005, 0.02)),
            modes=modes,
        )


@dataclass
class FootstepParts:
    """Range- and floor-independent templates of one step.

    The templates are read-only once made: the spectrum of structure_source
    and the range-free part of the dispersive delay are kept for the last
    FFT length asked for, because the microphones of one step mostly share
    it.
    """

    sample_rate: int
    air_template: np.ndarray
    structure_source: np.ndarray  # low-pass weighted modes, before dispersion
    _at_length: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def _dispersion_inputs(self, n: int, speed_at_1hz: float) -> tuple:
        """(rfft of structure_source zero-padded to n samples,
        _delay_denominators(n, speed_at_1hz, sample_rate))."""
        key = (n, speed_at_1hz)
        if self._at_length[0] != key:
            self._at_length = (key, (np.fft.rfft(self.structure_source, n),
                                     _delay_denominators(n, speed_at_1hz, self.sample_rate)))
        return self._at_length[1]


def _impact_pulse(duration_s: float, sample_rate: int, scale: float) -> np.ndarray:
    """Force-rate pulse of a heel strike: one sine cycle over the contact time.

    Shorter contacts hit harder: amplitude scales with the reference contact
    time over the actual one.
    """
    n = max(8, int(round(duration_s * sample_rate)))
    t = np.arange(n) / sample_rate
    return scale * (_REFERENCE_IMPACT_S / duration_s) * np.sin(2.0 * np.pi * t / duration_s)


def _mode_response(freq: float, damping: float, amplitude: float, sample_rate: int) -> np.ndarray:
    ring = min(_RING_DECAY / damping, _MAX_RING_S)
    n = max(int(ring * sample_rate), 16)
    t = np.arange(n) / sample_rate
    out = amplitude * np.exp(-damping * t) * np.sin(2.0 * np.pi * freq * t)
    # raised-cosine tail so truncation does not click
    n_fade = min(int(_FADE_S * sample_rate), n // 2)
    if n_fade > 0:
        out[-n_fade:] *= 0.5 * (1.0 + np.cos(np.pi * np.arange(n_fade) / n_fade))
    return out


def footstep_parts(persona: FootstepPersona, sample_rate: int) -> FootstepParts:
    """Synthesize the templates shared by every microphone."""
    _check_instance(persona, FootstepPersona, "persona")
    sample_rate = _as_whole(sample_rate, "sample_rate")
    if persona.max_mode_hz >= 0.5 * sample_rate:
        raise FootfallError(
            "persona mode at or above Nyquist",
            persona=persona.name,
            max_mode_hz=persona.max_mode_hz,
            sample_rate=sample_rate,
        )
    pulse = _impact_pulse(persona.impact_duration_s, sample_rate, persona.impact_force_scale)
    air = None
    structure = None
    for f, d, a in persona.modes:
        ringing = fftconvolve(pulse, _mode_response(f, d, a, sample_rate))
        weight = np.exp(-f / STRUCTURE_LOWPASS_HZ)
        air = ringing if air is None else _add_varlen(air, ringing)
        structure = weight * ringing if structure is None else _add_varlen(structure, weight * ringing)
    return FootstepParts(sample_rate=sample_rate, air_template=air, structure_source=structure)


def _add_varlen(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


_DISPERSION_CUTOFF_HZ = 20.0


def _dispersed_length(size: int, material: FloorMaterial, range_m: float,
                      sample_rate: int) -> int:
    """FFT length that holds `size` samples plus the slowest arrival."""
    tau_max = range_m / (material.speed_1hz * np.sqrt(_DISPERSION_CUTOFF_HZ))
    pad = int(np.ceil(sample_rate * (tau_max + 0.001)))
    return next_fast_len(size + pad)


def _delay_denominators(n: int, speed_at_1hz: float, sample_rate: int) -> tuple:
    """(bin spacing h, den at the bin midpoints, den at the bins) for an rfft
    of length n, where the group delay is tau = range / den."""
    f_lo = _DISPERSION_CUTOFF_HZ
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)

    def den(freq):
        return speed_at_1hz * (freq * freq + f_lo * f_lo) ** 0.25

    h = f[1]
    return h, den(f[:-1] + 0.5 * h), den(f)


def _disperse(spectrum: np.ndarray, n: int, range_m: float, dens: tuple) -> np.ndarray:
    """The bending-wave propagation phase for range_m applied to an rfft of
    length n, back in time; dens is _delay_denominators for that length.

    Pure phase filter with group delay range / c_f(f); unit magnitude, so the
    output energy equals the input energy exactly. The slab stops acting as
    a dispersive plate once wavelengths reach its span, so the group delay is
    regularized to tau(f) = range / (a * (f^2 + cutoff^2)^(1/4)) with a the
    bending speed at 1 Hz: indistinguishable from range / c_f(f) in the mode
    band, bounded at DC. tau is even in f, so the phase extends smoothly
    across DC and the impulse response has no slowly decaying tails. The
    phase is the cumulative integral of the group delay, taken with a
    composite Simpson rule so the discretization noise stays nanoradian.
    n comes from _dispersed_length, so the slowest arrival fits without
    wrapping.
    """
    h, mid_den, ends_den = dens
    mid = range_m / mid_den
    ends = range_m / ends_den
    segments = (h / 6.0) * (ends[:-1] + 4.0 * mid + ends[1:])
    phase = np.zeros(ends.size)
    phase[1:] = -2.0 * np.pi * np.cumsum(segments)
    return np.fft.irfft(spectrum * np.exp(1j * phase), n)


def place_footstep(
    parts: FootstepParts,
    material: FloorMaterial,
    range_m: float,
    out: np.ndarray | None = None,
    offset: int = 0,
    air: bool = True,
    structure: bool = True,
) -> np.ndarray:
    """Mix one step into `out` (allocated if None) at the given range.

    out is a writable 1-D float64 ndarray; offset is the sample index of the
    impact instant. Returns the buffer.
    """
    _check_instance(parts, FootstepParts, "parts")
    _check_instance(material, FloorMaterial, "material")
    # no pass over the samples: a capture-length out comes once per step and microphone
    if out is not None and not (isinstance(out, np.ndarray) and out.ndim == 1
                                and out.dtype == np.float64 and out.flags.writeable):
        raise FootfallError("out must be a writable 1-D float64 ndarray", argument="out",
                            type=type(out).__name__,
                            shape=list(out.shape) if isinstance(out, np.ndarray) else None)
    if _as_positive(range_m, "range_m") > 150.0:
        raise FootfallError("range out of bounds", range_m=range_m)
    offset = _as_whole(offset, "offset", zero_ok=True)
    fs = parts.sample_rate
    air_delay = int(round(fs * range_m / material.air_speed))
    dispersed = None
    if structure:
        n_fft = _dispersed_length(parts.structure_source.size, material, range_m, fs)
        spectrum, dens = parts._dispersion_inputs(n_fft, material.speed_1hz)
        dispersed = _disperse(spectrum, n_fft, range_m, dens)
    if out is None:
        longest = air_delay + parts.air_template.size
        if dispersed is not None:
            longest = max(longest, dispersed.size)
        out = np.zeros(offset + longest)
    n = out.size

    def _mix(template: np.ndarray, delay: int, gain: float):
        start = offset + delay
        if start >= n:
            return
        stop = min(n, start + template.size)
        out[start:stop] += gain * template[: stop - start]

    if dispersed is not None:
        _mix(dispersed, 0, STRUCTURE_GAIN / np.sqrt(range_m))
    if air:
        _mix(parts.air_template, air_delay, 1.0 / range_m)
    return out


def synth_footstep(
    persona: FootstepPersona,
    material: FloorMaterial,
    range_m: float,
    sample_rate: int,
    air: bool = True,
    structure: bool = True,
) -> Waveform:
    """One footstep heard by one microphone at the given range."""
    parts = footstep_parts(persona, sample_rate)
    samples = place_footstep(parts, material, range_m, air=air, structure=structure)
    return Waveform(samples, sample_rate)
