"""Mel-frequency cepstral features computed from scratch.

Mel filterbank energies are taken on the STFT power spectrum, logged, then
decorrelated with an orthonormal DCT-II. Coefficient 0 is the DCT of the log
energies (overall level); classifiers that want volume invariance drop it.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.fft import dct

from .dsp import stft
from .types import Waveform

_LOG_FLOOR = 1e-30
_N_FILTERS = 26
_N_COEFFS = 13


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def _mel_filterbank(window_len: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank from 0 Hz to Nyquist, shape (26, window_len // 2 + 1).

    Both sizes are the ints of a checked Spectrogram. Built once per
    (window_len, sample_rate); the shared array is read-only.
    """
    n_bins = window_len // 2 + 1
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), _N_FILTERS + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * sample_rate / window_len
    fb = np.zeros((_N_FILTERS, n_bins))
    for i in range(_N_FILTERS):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - bin_freqs) / max(hi - center, 1e-12)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    fb.flags.writeable = False
    return fb


def mfc(w: Waveform, window_len: int = 512, hop: int = 256) -> np.ndarray:
    """Mel cepstra per frame, shape (n_frames, 13), from 26 mel filters."""
    spec = stft(w, window_len, hop)
    power = spec.magnitudes.T ** 2  # (n_frames, n_bins)
    mel_energy = power @ _mel_filterbank(spec.window_len, spec.sample_rate).T
    log_energy = np.log(np.maximum(mel_energy, _LOG_FLOOR))
    return dct(log_energy, type=2, axis=1, norm="ortho")[:, :_N_COEFFS]
