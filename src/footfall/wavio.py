"""WAV file I/O: PCM 16-bit and IEEE float32, mono or multichannel."""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import FootfallError
from .types import MultichannelWaveform, Waveform

_PCM16_SCALE = 32767.0


def write_wav(path, w: Waveform | MultichannelWaveform, encoding: str = "float32") -> None:
    """Write a waveform; encoding is 'float32' or 'pcm16'."""
    data = w.samples.T if isinstance(w, MultichannelWaveform) else w.samples
    if encoding == "float32":
        wavfile.write(str(path), w.sample_rate, data.astype(np.float32))
    elif encoding == "pcm16":
        peak = np.max(np.abs(data)) if data.size else 0.0
        if peak > 1.0:
            raise FootfallError("pcm16 write requires samples within [-1, 1]", peak=float(peak))
        wavfile.write(str(path), w.sample_rate, np.round(data * _PCM16_SCALE).astype(np.int16))
    else:
        raise FootfallError("unknown wav encoding", encoding=encoding)


def read_wav(path) -> Waveform | MultichannelWaveform:
    """Read a WAV file; returns Waveform for mono, MultichannelWaveform otherwise."""
    path = Path(path)
    if not path.exists():
        raise FootfallError("wav file not found", path=str(path))
    try:
        with warnings.catch_warnings():  # a truncated file is an error, not a short read
            warnings.filterwarnings("error", "Reached EOF", wavfile.WavFileWarning)
            rate, data = wavfile.read(str(path))
    except (ValueError, struct.error, wavfile.WavFileWarning) as err:
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
