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


def _as_whole(x, name: str, zero_ok: bool = False) -> int:
    """x as an int when it is a positive whole number (48000.0 passes,
    16000.7 does not), or zero when zero_ok; otherwise a FootfallError that
    calls it name."""
    try:
        if isinstance(x, (str, bytes, bool, np.bool_)):  # float() would take "512" and True
            raise TypeError
        value = float(x)
    except (TypeError, ValueError):
        raise FootfallError(f"{name} must be a number", **{name: repr(x)}) from None
    if not (value.is_integer() and (value > 0 or zero_ok and value == 0)):  # false for NaN, +-inf
        kind = "whole number >= 0" if zero_ok else "positive whole number"
        raise FootfallError(f"{name} must be a {kind}", **{name: x})
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
    """Short-time spectrogram: the complex STFT itself.

    values has shape (n_bins, n_frames) where n_bins = window_len // 2 + 1;
    magnitudes is |values|, computed on each read. A mask scales values in
    place.
    """

    values: np.ndarray
    window_len: int
    hop: int
    sample_rate: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.window_len = _as_whole(self.window_len, "window_len")
        self.hop = _as_whole(self.hop, "hop")
        self.sample_rate = _as_whole(self.sample_rate, "sample_rate")
        if not np.iscomplexobj(self.values):
            raise FootfallError("values must be complex", dtype=str(self.values.dtype))
        expected_bins = self.window_len // 2 + 1
        if self.values.ndim != 2 or self.values.shape[0] != expected_bins:
            raise FootfallError("values must be 2-dimensional with window_len // 2 + 1 rows",
                                shape=list(self.values.shape), expected_rows=expected_bins)
        finite = np.isfinite(self.values)
        if not finite.all():
            raise FootfallError("values contains non-finite entries",
                                non_finite=int(finite.size - np.count_nonzero(finite)))

    @property
    def magnitudes(self) -> np.ndarray:
        """|values|, a new array on each read."""
        return np.abs(self.values)

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def frame_rate(self) -> float:
        """Frames per second along the time axis."""
        return self.sample_rate / self.hop
