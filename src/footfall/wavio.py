"""WAV file I/O: PCM 16-bit and IEEE float32, mono or multichannel."""

from __future__ import annotations

import struct
import warnings

import numpy as np
from scipy.io import wavfile

from .errors import FootfallError
from .types import MultichannelWaveform, Waveform, _check_instance

_PCM16_SCALE = 32767.0


def write_wav(path, w: Waveform | MultichannelWaveform, encoding: str = "float32") -> None:
    """Write a waveform; encoding is 'float32' or 'pcm16'."""
    _check_instance(w, (Waveform, MultichannelWaveform), "w")
    data = w.samples.T if isinstance(w, MultichannelWaveform) else w.samples
    if encoding == "float32":
        data = data.astype(np.float32)
    elif encoding == "pcm16":
        peak = np.max(np.abs(data)) if data.size else 0.0
        if peak > 1.0:
            raise FootfallError("pcm16 write requires samples within [-1, 1]", peak=float(peak))
        data = np.round(data * _PCM16_SCALE).astype(np.int16)
    else:
        raise FootfallError("unknown wav encoding", encoding=encoding)
    try:
        wavfile.write(str(path), w.sample_rate, data)
    except OSError as err:
        raise FootfallError("unwritable wav file", path=str(path), reason=str(err)) from None


def read_wav(path) -> Waveform | MultichannelWaveform:
    """Read a WAV file; returns Waveform for mono, MultichannelWaveform otherwise."""
    try:
        with warnings.catch_warnings():  # a truncated file is an error, not a short read
            warnings.filterwarnings("error", "Reached EOF", wavfile.WavFileWarning)
            rate, data = wavfile.read(str(path))
    except (OSError, ValueError, struct.error, wavfile.WavFileWarning) as err:
        raise FootfallError("unreadable wav file", path=str(path), reason=str(err)) from None
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483647.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FootfallError("unsupported wav sample format", dtype=str(data.dtype))
    if samples.ndim == 1:
        return Waveform(samples, rate)
    return MultichannelWaveform(samples.T, rate)
