"""Short-time analysis primitives: STFT, inverse STFT, RMS level.

A spectrogram is the complex STFT itself, and istft inverts those complex
values directly: a filter scales them by its real gain in place and
inverts, with no phase round trip and no masked copy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FootfallError
from .types import Spectrogram, Waveform, _as_float_array, _as_positive, _as_whole

# Relative floor under which the overlap-add weight is treated as zero.
_OLA_FLOOR = 1e-8


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (DFT-even), sums to a constant under 50% overlap."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def rms(w: Waveform | np.ndarray) -> float:
    """Root-mean-square level of a waveform."""
    x = w.samples if isinstance(w, Waveform) else _as_float_array(w, "w", None)
    if x.size == 0:
        raise FootfallError("rms of empty waveform")
    return float(np.sqrt(np.mean(x * x)))


def _frame(x: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Frames fully inside the signal, shape (n_frames, window_len)."""
    if x.size < window_len:
        raise FootfallError(
            "waveform shorter than analysis window",
            n_samples=int(x.size),
            window_len=window_len,
        )
    return sliding_window_view(x, window_len)[::hop]


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the rows of frames (n_frames, window_len), placed hop apart.

    Each frame is cut into ceil(window_len / hop) chunks of one hop; chunk c
    of frame m lands on output block m + c. Adding the chunk offsets from the
    last to the first adds every sample's terms oldest frame first, the order
    of a frame-by-frame loop, so the sums are the same to the bit.
    """
    n_frames, window_len = frames.shape
    k = -(-window_len // hop)
    if k * hop > window_len:
        frames = np.pad(frames, ((0, 0), (0, k * hop - window_len)))
    chunks = frames.reshape(n_frames, k, hop)
    acc = np.zeros((n_frames + k - 1, hop))
    for c in range(k - 1, -1, -1):
        acc[c : c + n_frames] += chunks[:, c]
    return acc.reshape(-1)[: (n_frames - 1) * hop + window_len]


def ola_weight(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    """Sum of squared analysis windows overlapped at the given hop.

    Away from the first and last window_len samples, every block of one hop
    holds the same sum. So the blocks are summed for at most
    ceil(window_len / hop) frames, chunk by chunk in _overlap_add's order,
    and the full block is repeated: the same bits as overlap-adding
    n_frames windows.
    """
    window_len, hop = _check_hop(window.size, hop)
    n_frames = _as_whole(n_frames, "n_frames")
    wsq = window * window
    k = -(-window_len // hop)
    chunks = np.pad(wsq, (0, k * hop - window_len)).reshape(k, hop)
    m = min(n_frames, k)  # frames enough for every distinct block
    acc = np.zeros((m + k - 1, hop))
    for c in range(k - 1, -1, -1):
        acc[c : c + m] += chunks[c]
    reps = np.ones(m + k - 1, dtype=np.intp)
    reps[k - 1] += n_frames - m  # block k - 1 is the full sum when n_frames >= k
    return np.repeat(acc, reps, axis=0).reshape(-1)[: (n_frames - 1) * hop + window_len]


def _check_hop(window_len, hop) -> tuple[int, int]:
    """window_len and hop as ints: positive whole numbers, hop at most window_len."""
    window_len, hop = _as_whole(window_len, "window_len"), _as_whole(hop, "hop")
    if hop > window_len:
        raise FootfallError(
            "hop larger than window breaks overlap-add reconstruction",
            hop=hop,
            window_len=window_len,
        )
    return window_len, hop


def stft(w: Waveform, window_len: int = 512, hop: int = 256) -> Spectrogram:
    """Complex STFT with a periodic Hann window.

    Frames lie fully inside the signal (no padding), so shifting the input by
    one hop shifts the frame axis by exactly one column.
    """
    window_len, hop = _check_hop(window_len, hop)
    frames = _frame(w.samples, window_len, hop)
    window = hann_window(window_len)
    z = np.fft.rfft(frames * window, axis=1).T  # (n_bins, n_frames)
    return Spectrogram(z, window_len, hop, w.sample_rate)


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add inverse of stft.

    Interior samples (at least one window away from either edge) reconstruct
    the original signal to well below 1e-6 RMS; edge samples are attenuated
    where the window weight vanishes.
    """
    window_len, hop = _check_hop(spec.window_len, spec.hop)  # its fields can be reassigned
    z = spec.values
    if z.shape[1] == 0:
        raise FootfallError("spectrogram has no frames to invert", shape=list(z.shape))
    window = hann_window(window_len)
    frames = np.fft.irfft(z.T, n=window_len, axis=1)
    n_frames = frames.shape[0]
    n = (n_frames - 1) * hop + window_len
    den = ola_weight(window, hop, n_frames)
    # Overlap-add requires the interior weight to stay bounded away from zero.
    interior = den[window_len : n - window_len]
    if interior.size and interior.min() < _OLA_FLOOR * den.max():
        raise FootfallError(
            "window/hop combination is not overlap-add invertible",
            window_len=window_len,
            hop=hop,
        )
    frames *= window
    acc = _overlap_add(frames, hop)
    acc[den <= _OLA_FLOOR * den.max()] = 0.0  # no weight to divide by
    acc /= np.maximum(den, 1e-300, out=den)
    return Waveform(acc, spec.sample_rate)


def narrowband_envelope(x: np.ndarray, sample_rate: int, center_hz: float, bandwidth_hz: float) -> np.ndarray:
    """Amplitude envelope of the signal restricted to one frequency band.

    Complex demodulation at center_hz with a Gaussian low-pass (sigma of
    bandwidth/4, so the band edge sits at two sigma). The Gaussian has no
    sidelobes, so strong out-of-band content cannot masquerade as an early
    arrival. Useful for timing a single arrival whose carrier is known.
    """
    center_hz = _as_positive(center_hz, "center_hz")
    bandwidth_hz = _as_positive(bandwidth_hz, "bandwidth_hz")
    x = _as_float_array(x, "x", (None,))
    spectrum = np.fft.fft(x)
    f = np.fft.fftfreq(x.size, 1.0 / sample_rate)
    sigma = 0.25 * bandwidth_hz
    # one-sided mask selects the +center band only, giving the analytic signal
    spectrum *= np.exp(-0.5 * ((f - center_hz) / sigma) ** 2)
    return 2.0 * np.abs(np.fft.ifft(spectrum))


def envelope_peak_time(env: np.ndarray, sample_rate: int) -> float:
    """Sub-sample peak location of an envelope via parabolic interpolation."""
    k = int(np.argmax(env))
    if 0 < k < env.size - 1:
        a, b, c = env[k - 1], env[k], env[k + 1]
        den = a - 2.0 * b + c
        if den < 0:
            k = k + 0.5 * (a - c) / den
    return float(k) / sample_rate


def analyze_padded(w: Waveform, window_len: int, hop: int) -> tuple[Spectrogram, int]:
    """STFT of the zero-padded signal so that every original sample is interior.

    Returns the spectrogram and the offset of the first original sample;
    synthesize_padded inverts it back to the exact original length.
    """
    window_len, hop = _check_hop(window_len, hop)  # before the frame count divides by it
    pad = window_len
    n = w.samples.size
    total = pad + n + pad
    # grow the tail so the last frame covers the padded span
    n_frames = int(np.ceil(max(total - window_len, 0) / hop)) + 1
    total = (n_frames - 1) * hop + window_len
    padded = np.zeros(total)
    padded[pad : pad + n] = w.samples
    return stft(Waveform(padded, w.sample_rate), window_len, hop), pad


def synthesize_padded(spec: Spectrogram, offset: int, n_samples: int) -> Waveform:
    """Inverse of analyze_padded: crop back to the original sample span.

    offset and n_samples are whole numbers >= 0, and the span they name
    must lie inside the inverse.
    """
    offset = _as_whole(offset, "offset", zero_ok=True)
    n_samples = _as_whole(n_samples, "n_samples", zero_ok=True)
    full = istft(spec).samples
    if offset + n_samples > full.size:
        raise FootfallError("sample span runs past the end of the inverse",
                            offset=offset, n_samples=n_samples, length=int(full.size))
    return Waveform(full[offset : offset + n_samples], spec.sample_rate)
