"""Interference generators: a pink noise bed and synthetic voice babble.

The noise bed comes back at unit RMS so the scene mixer can scale it to any
target signal-to-noise ratio. Babble is a harmonic-plus-noise chorus driven
by seeded pitch contours. Pitch stays at or above 110 Hz so the chorus never
imitates the low resonances of a footstep, and syllable timing is drawn
aperiodically so the chorus cannot carry a walking-pace rhythm.

babble makes every random draw on the calling thread, talker by talker in a
fixed order. A two-worker thread pool runs each talker's harmonic sum into
a buffer that the calling thread allocated, and the talkers are added in
order, so the chorus has the same bits on any number of cores. The draws
and the breath band-limiting stay on the calling thread for memory: running
each talker whole on the pool, from its own seeded stream, raised the peak
resident memory of a 48 kHz synthesis of 3 walkers at 4 microphones from
338-352 MB to 396-409 MB on a 2-vCPU VM.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from .errors import FootfallError
from .types import Waveform, _as_positive, _as_real, _as_whole, _check_instance

VOICE_TOP_HZ = 3800.0
_BREATH_LO_HZ = 300.0
_BREATH_LEVEL = 0.12
_SYLLABLE_RAMP_S = 0.02
_HARMONIC_BLOCK = 8192  # samples per Horner pass; bounds the complex temporaries
_WORKERS = 2  # threads that run the talkers' harmonic sums


def pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS noise with power density falling as 1/f.

    White noise is shaped in the frequency domain by 1/sqrt(f); the DC bin is
    zeroed. Equal energy per octave, 3 dB down per octave in density.
    """
    _check_instance(rng, np.random.Generator, "rng")
    n = _as_whole(n, "n")
    if n < 2:  # the shaping needs a bin above DC
        raise FootfallError("pink noise needs at least two samples", n=n)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n)
    spectrum[0] = 0.0
    spectrum[1:] /= np.sqrt(f[1:] / f[1])
    x = np.fft.irfft(spectrum, n)
    return x / np.sqrt(np.mean(x * x))


def _pitch_contour(n: int, sample_rate: int, rng: np.random.Generator,
                   lo: float, hi: float) -> np.ndarray:
    """Slowly wandering fundamental, clipped to [lo, hi] Hz."""
    base = rng.uniform(lo * 1.05, hi * 0.9)
    n_ctrl = max(4, int(3 * n / sample_rate) + 2)
    ctrl = np.cumsum(rng.normal(0.0, 0.06, n_ctrl))
    ctrl -= ctrl.mean()
    wobble = np.interp(np.arange(n), np.linspace(0, n - 1, n_ctrl), ctrl)
    return np.clip(base * np.exp(wobble), lo, hi)


def _syllable_envelope(n: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """On/off amplitude gating with aperiodic syllable and pause lengths."""
    env = np.zeros(n)
    ramp = int(_SYLLABLE_RAMP_S * sample_rate)
    t = int(rng.uniform(0.0, 0.12) * sample_rate)
    while t < n:
        dur = int(rng.uniform(0.09, 0.28) * sample_rate)
        gap = int(rng.uniform(0.04, 0.18) * sample_rate)
        seg = min(dur, n - t)
        shape = np.ones(seg)
        edge = min(ramp, seg // 2)
        if edge > 0:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            shape[:edge] = fade
            shape[seg - edge:] = fade[::-1]
        env[t:t + seg] = shape * rng.uniform(0.5, 1.0)
        t += dur + gap
    return env


def _harmonic_sum(phase: np.ndarray, n_harmonics: int, out: np.ndarray) -> np.ndarray:
    """sum_k sin(k * phase) / k for k = 1..n_harmonics, written into out.

    The imaginary part of sum_k z^k / k with z = exp(1j * phase), evaluated
    by Horner's rule one block of samples at a time. Powers of a unit z
    carry no rounding of k * phase, so this is closer to the exact sum than
    summing np.sin(k * phase) / k once the phase has run to thousands of
    radians.
    """
    for start in range(0, phase.size, _HARMONIC_BLOCK):
        z = np.exp(1j * phase[start:start + _HARMONIC_BLOCK])
        acc = np.full(z.size, 1.0 / n_harmonics, dtype=complex)
        for k in range(n_harmonics - 1, 0, -1):
            acc *= z
            acc += 1.0 / k
        acc *= z
        out[start:start + z.size] = acc.imag
    return out


def _talker_draws(n: int, sample_rate: int, rng: np.random.Generator,
                  lo: float, hi: float) -> tuple:
    """One talker's random parts: (phase, harmonic count, breath, syllable envelope).

    The breath is band-limited but not yet scaled to the voiced part.
    """
    top = min(VOICE_TOP_HZ, 0.45 * sample_rate)
    f0 = _pitch_contour(n, sample_rate, rng, lo, hi)
    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    breath = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)
    breath[(f < _BREATH_LO_HZ) | (f > top)] = 0.0
    breath = np.fft.irfft(breath, n)
    return (phase, max(1, int(top / np.max(f0))), breath,
            _syllable_envelope(n, sample_rate, rng))


def _add_talker(x: np.ndarray, harmonics: Future, breath: np.ndarray,
                envelope: np.ndarray):
    """Add one talker to x: its harmonic sum plus breath scaled to it, gated."""
    voiced = harmonics.result()
    breath *= _BREATH_LEVEL * np.sqrt(np.mean(voiced * voiced)) / max(
        np.sqrt(np.mean(breath * breath)), 1e-300)
    x += (voiced + breath) * envelope


def babble(duration_s: float, sample_rate: int, rng: np.random.Generator,
           n_talkers: int = 4, pitch_lo: float = 110.0, pitch_hi: float = 290.0) -> Waveform:
    """Unit-RMS chorus of n_talkers synthetic voices."""
    _check_instance(rng, np.random.Generator, "rng")
    sample_rate = _as_whole(sample_rate, "sample_rate")
    duration_s = _as_positive(duration_s, "duration_s")
    n_talkers = _as_whole(n_talkers, "n_talkers")
    pitch_lo, pitch_hi = _as_real(pitch_lo, "pitch_lo"), _as_real(pitch_hi, "pitch_hi")
    if not 110.0 <= pitch_lo < pitch_hi:
        raise FootfallError("pitch range must be finite and sit at or above 110 Hz",
                            pitch_lo=pitch_lo, pitch_hi=pitch_hi)
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise FootfallError("duration is shorter than one sample",
                            duration_s=duration_s, sample_rate=sample_rate)
    x = np.zeros(n)
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        talkers = deque()
        for _ in range(n_talkers):  # every draw on this thread, in a fixed order
            phase, n_harmonics, breath, envelope = _talker_draws(
                n, sample_rate, rng, pitch_lo, pitch_hi)
            talkers.append((pool.submit(_harmonic_sum, phase, n_harmonics, np.empty(n)),
                            breath, envelope))
        while talkers:  # in order; a talker's arrays are freed once it is added
            _add_talker(x, *talkers.popleft())
    level = np.sqrt(np.mean(x * x))
    if level < 1e-12:
        raise FootfallError("babble came out silent; duration too short for a syllable")
    x /= level
    return Waveform(x, sample_rate)
