"""Decision-directed Wiener gain for residual noise left after separation.

Per bin, the a-priori SNR is a convex blend of the previous frame's clean
estimate against the noise floor with the current instantaneous excess, so
the gain cannot chatter frame to frame the way plain subtraction does (the
musical-noise failure). The gain never drops below a floor: residual noise
is shaped down, not gated to silence.
"""

from __future__ import annotations

import numpy as np

from .dsp import analyze_padded, synthesize_padded
from .errors import FootfallError
from .types import Spectrogram, Waveform, _check_instance

ALPHA = 0.98  # memory of the a-priori SNR estimate
GAIN_FLOOR = 0.05


def wiener_residual_suppress(noisy: Waveform, noise_floor: Spectrogram) -> Waveform:
    """Suppress stationary residual noise under a per-bin Wiener gain.

    noise_floor is a spectrogram of a noise-only stretch (a silent region or
    the voice residual); its per-bin mean power is the noise estimate. The
    gain is g = max(xi / (1 + xi), GAIN_FLOOR) with decision-directed xi.
    Output has exactly the input length; silence stays silence.
    """
    _check_instance(noisy, Waveform, "noisy")
    _check_instance(noise_floor, Spectrogram, "noise_floor")
    if noise_floor.sample_rate != noisy.sample_rate:
        raise FootfallError(
            "noise floor sample rate differs from signal",
            signal=noisy.sample_rate,
            floor=noise_floor.sample_rate,
        )
    if noise_floor.n_frames == 0:
        raise FootfallError("noise floor has no frames to estimate the noise from",
                            noise_floor_shape=noise_floor.values.shape)
    window_len, hop = noise_floor.window_len, noise_floor.hop
    spec, offset = analyze_padded(noisy, window_len, hop)
    noise = np.mean(noise_floor.magnitudes**2, axis=1)
    peak = float(noise.max())
    if not peak > 0.0:
        raise FootfallError("noise floor has no energy to estimate the noise from",
                            noise_floor_shape=noise_floor.values.shape)
    # an empty bin in the floor estimate must not blow up the posterior SNR
    noise = np.maximum(noise, 1e-12 * max(peak, 1e-300))
    gains = _gains(spec.magnitudes, noise)
    spec.values *= gains
    del gains  # room for the inverse
    return synthesize_padded(spec, offset, noisy.samples.size)


def _gains(magnitudes: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Decision-directed gains (n_bins, n_frames) of magnitudes over noise (n_bins,).

    xi = ALPHA * g_prev**2 * gamma_prev + (1 - ALPHA) * max(gamma - 1, 0) with
    the posterior SNR gamma = |X|**2 / noise. The second term is filled in for
    every frame at once; the recursion then adds the first frame by frame, in
    place, so no frame allocates. The STFT's magnitudes are its transpose, so
    each frame's column is contiguous.
    """
    gamma = magnitudes**2
    gamma /= noise[:, None]
    gains = np.subtract(gamma, 1.0)
    np.maximum(gains, 0.0, out=gains)
    gains *= 1.0 - ALPHA
    gamma *= ALPHA  # the recursion reads gamma only as ALPHA * gamma
    carry = np.zeros(gamma.shape[0])  # ALPHA * gamma_prev * g_prev**2, and scratch
    for g, alpha_gamma in zip(gains.T, gamma.T):
        np.add(g, carry, out=g)  # xi
        np.add(g, 1.0, out=carry)
        np.divide(g, carry, out=g)
        np.maximum(g, GAIN_FLOOR, out=g)
        np.multiply(g, g, out=carry)
        carry *= alpha_gamma
    return gains
