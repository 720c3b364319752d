"""Decision-directed Wiener gain for residual noise left after separation.

Per bin, the a-priori SNR is a convex blend of the previous frame's clean
estimate against the noise floor with the current instantaneous excess, so
the gain cannot chatter frame to frame the way plain subtraction does (the
musical-noise failure). The gain never drops below a floor: residual noise
is shaped down, not gated to silence.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dsp import analyze_padded, synthesize_padded
from .errors import FootfallError
from .types import Spectrogram, Waveform

ALPHA = 0.98  # memory of the a-priori SNR estimate
GAIN_FLOOR = 0.05


def wiener_residual_suppress(noisy: Waveform, noise_floor: Spectrogram) -> Waveform:
    """Suppress stationary residual noise under a per-bin Wiener gain.

    noise_floor is a spectrogram of a noise-only stretch (a silent region or
    the voice residual); its per-bin mean power is the noise estimate. The
    gain is g = max(xi / (1 + xi), GAIN_FLOOR) with decision-directed xi.
    Output has exactly the input length; silence stays silence.
    """
    if noise_floor.sample_rate != noisy.sample_rate:
        raise FootfallError(
            "noise floor sample rate differs from signal",
            signal=noisy.sample_rate,
            floor=noise_floor.sample_rate,
        )
    window_len, hop = noise_floor.window_len, noise_floor.hop
    spec, offset = analyze_padded(noisy, window_len, hop)
    power = spec.magnitudes**2  # (n_bins, n_frames)
    noise = np.mean(noise_floor.magnitudes**2, axis=1)
    # an empty bin in the floor estimate must not blow up the posterior SNR
    noise = np.maximum(noise, 1e-12 * max(float(noise.max(initial=0.0)), 1e-300))

    n_bins, n_frames = power.shape
    gains = np.empty_like(power)
    prev_clean = np.zeros(n_bins)
    for m in range(n_frames):
        gamma = power[:, m] / noise
        xi = ALPHA * (prev_clean / noise) + (1.0 - ALPHA) * np.maximum(gamma - 1.0, 0.0)
        g = np.maximum(xi / (1.0 + xi), GAIN_FLOOR)
        gains[:, m] = g
        prev_clean = g * g * power[:, m]

    out = replace(spec, magnitudes=gains * spec.magnitudes)
    return synthesize_padded(out, offset, noisy.samples.size)
