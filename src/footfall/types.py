"""Shared audio container types.

All samples are float64 numpy arrays. Waveform is strictly mono; microphone
captures use MultichannelWaveform with shape (n_channels, n_samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FootfallError


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise FootfallError(f"{name} must be {ndim}-dimensional", shape=list(arr.shape))
    if not np.all(np.isfinite(arr)):
        raise FootfallError(f"{name} contains non-finite samples")
    return arr


def _as_whole(x, name: str) -> int:
    """x as an int when it is a positive whole number (48000.0 passes,
    16000.7 does not); otherwise a FootfallError that calls it name."""
    try:
        if isinstance(x, (str, bytes, bool, np.bool_)):  # float() would take "512" and True
            raise TypeError
        value = float(x)
    except (TypeError, ValueError):
        raise FootfallError(f"{name} must be a number", **{name: repr(x)}) from None
    if not (value > 0 and value.is_integer()):  # false for NaN and +-inf
        raise FootfallError(f"{name} must be a positive whole number", **{name: x})
    return int(value)


@dataclass
class Waveform:
    """Mono waveform: samples (n,) plus sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = _as_float_array(self.samples, "samples", 1)
        self.sample_rate = _as_whole(self.sample_rate, "sample_rate")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class MultichannelWaveform:
    """Multi-microphone capture: samples (n_channels, n_samples)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = _as_float_array(self.samples, "samples", 2)
        self.sample_rate = _as_whole(self.sample_rate, "sample_rate")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    def channel(self, i: int) -> Waveform:
        return Waveform(self.samples[i].copy(), self.sample_rate)

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / self.sample_rate


@dataclass
class Spectrogram:
    """Short-time magnitude spectrogram.

    magnitudes has shape (n_bins, n_frames) where n_bins = window_len // 2 + 1.
    phase (radians, same shape) is kept when the spectrogram must be
    invertible; magnitude-only spectrograms carry phase=None.
    """

    magnitudes: np.ndarray
    window_len: int
    hop: int
    sample_rate: int
    phase: np.ndarray | None = None

    def __post_init__(self):
        self.magnitudes = _as_float_array(self.magnitudes, "magnitudes", 2)
        self.window_len = _as_whole(self.window_len, "window_len")
        self.hop = _as_whole(self.hop, "hop")
        if np.any(self.magnitudes < 0):
            raise FootfallError("magnitudes must be nonnegative")
        expected_bins = self.window_len // 2 + 1
        if self.magnitudes.shape[0] != expected_bins:
            raise FootfallError(
                "magnitudes row count must equal window_len // 2 + 1",
                rows=self.magnitudes.shape[0],
                expected=expected_bins,
            )
        if self.phase is not None:
            self.phase = _as_float_array(self.phase, "phase", 2)
            if self.phase.shape != self.magnitudes.shape:
                raise FootfallError("phase shape must match magnitudes")

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]

    @property
    def frame_rate(self) -> float:
        """Frames per second along the time axis."""
        return self.sample_rate / self.hop

    def complex_values(self) -> np.ndarray:
        if self.phase is None:
            raise FootfallError("spectrogram has no phase; cannot rebuild complex values")
        return self.magnitudes * np.exp(1j * self.phase)
