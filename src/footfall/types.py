"""Shared audio container types.

All samples are float64 numpy arrays. Waveform is strictly mono; microphone
captures use MultichannelWaveform with shape (n_channels, n_samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FootfallError


def _as_real(x, name: str) -> float:
    """x as a finite float; otherwise a FootfallError that calls it name.

    A string, a bool or a complex number is refused though float() would
    take "512", True or the real part of 1+2j.
    """
    try:
        if isinstance(x, (str, bytes, bool, np.bool_, complex, np.complexfloating)):
            raise TypeError
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise FootfallError(f"{name} must be a real number", **{name: repr(x)}) from None
    if not math.isfinite(value):
        raise FootfallError(f"{name} must be finite", **{name: x})
    return value


def _as_whole(x, name: str, zero_ok: bool = False) -> int:
    """x as an int when it is a positive whole number (48000.0 passes,
    16000.7 does not), or zero when zero_ok; otherwise a FootfallError that
    calls it name."""
    value = _as_real(x, name)
    if not (value.is_integer() and (value >= 0 if zero_ok else value > 0)):
        kind = "whole number >= 0" if zero_ok else "positive whole number"
        raise FootfallError(f"{name} must be a {kind}", **{name: x})
    return int(x) if isinstance(x, (int, np.integer)) else int(value)  # exact past 2**53


def _as_positive(x, name: str, zero_ok: bool = False) -> float:
    """x as a float when it is finite and positive, or zero when zero_ok;
    otherwise a FootfallError that calls it name."""
    value = _as_real(x, name)
    if not (value >= 0 if zero_ok else value > 0):
        raise FootfallError(f"{name} must be {'>= 0' if zero_ok else 'positive'}", **{name: x})
    return value


def _check_instance(x, cls: type | tuple, name: str) -> None:
    """A FootfallError that calls x name unless x is a cls, or one of a
    tuple of classes."""
    if not isinstance(x, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise FootfallError(f"{name} must be a {kinds}", argument=name,
                            type=type(x).__name__)


def _as_instances(items, cls: type, name: str) -> tuple:
    """items as a tuple of cls instances; otherwise a FootfallError that
    calls it name."""
    try:
        items = tuple(items)
    except TypeError:
        raise FootfallError(f"{name} must be a sequence", argument=name,
                            type=type(items).__name__) from None
    for x in items:
        _check_instance(x, cls, name)
    return items


def _as_float_array(x, name: str, shape: tuple | None, nonnegative: bool = False) -> np.ndarray:
    """x as a finite float64 array, >= 0 throughout when nonnegative.

    shape is the shape it must have, None in it matching any length; a
    shape of None takes any shape. Otherwise a FootfallError with the
    argument's name and shape (None when x is ragged).
    """
    try:
        arr = np.asarray(x)
    except ValueError:  # ragged
        raise FootfallError(f"{name} must be a rectangular array", argument=name,
                            shape=None) from None
    problem = None
    if arr.dtype.kind not in "iuf":  # not bool, complex, str or object
        problem = f"must hold real numbers, not {arr.dtype}"
    elif shape is not None and (arr.ndim != len(shape) or any(
            want is not None and want != got for got, want in zip(arr.shape, shape))):
        problem = "must have shape ({})".format(
            ", ".join("n" if n is None else str(n) for n in shape))
    else:
        arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            problem = "must be finite"
        elif nonnegative and (arr < 0.0).any():
            problem = "must be nonnegative"
    if problem:
        raise FootfallError(f"{name} {problem}", argument=name, shape=list(arr.shape))
    return arr


@dataclass
class Waveform:
    """Mono waveform: samples (n,) plus sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = _as_float_array(self.samples, "samples", (None,))
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
        self.samples = _as_float_array(self.samples, "samples", (None, None))
        self.sample_rate = _as_whole(self.sample_rate, "sample_rate")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    def channel(self, i: int) -> Waveform:
        index = _as_whole(i, "i", zero_ok=True)
        if index >= self.n_channels:
            raise FootfallError("channel index out of range", i=i, n_channels=self.n_channels)
        return Waveform(self.samples[index].copy(), self.sample_rate)

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
        try:
            self.values = np.asarray(self.values)
        except ValueError:  # ragged
            raise FootfallError("values must be a rectangular array", shape=None) from None
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
