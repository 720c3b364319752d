"""Walking-rhythm detection from spectrogram autocorrelation.

Footsteps repeat at a pace inside [0.8, 2] Hz, far below anything a voice
sustains. Averaging the spectrogram's per-bin autocorrelation over its
lowest frequency rows concentrates that repetition into one lag sequence;
an impulse train leaves a comb in the DFT of that sequence, and walking is
accepted when both the pace line and its octave stand clear of the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FootfallError
from .types import Spectrogram

PACE_BAND_HZ = (0.8, 2.0)
MARGIN_DB = 10.0
_SEARCH_HZ = (0.5, 3.5)  # below this sits the lag-trend ramp, not a pace line
_LOOKAHEAD = 20
_SUBHARMONIC_MIN_HZ = 0.75
_SUBHARMONIC_DROP_DB = 8.0
_HARMONIC_WINDOW = 2  # bins of slack when locating the octave line
_ROWS = 3  # lowest spectrogram rows that asacc averages


@dataclass
class Asacc:
    """Normalized spectrogram autocorrelation along time; b[0] is lag zero = 1."""

    b: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.ndim != 1 or self.b.size < 1:
            raise FootfallError("b must be a nonempty vector")
        if not np.all(np.isfinite(self.b)):
            raise FootfallError("b must be finite")
        if abs(self.b[0] - 1.0) > 1e-9:
            raise FootfallError("b must be normalized to b[0] = 1", b0=float(self.b[0]))

    def __len__(self) -> int:
        return self.b.size


@dataclass
class StepRhythm:
    """Outcome of the pace test; reason is set only on reject."""

    accept: bool
    frequency_hz: float
    margin_db: float
    reason: str | None = None


def asacc(spec: Spectrogram) -> Asacc:
    """Average autocorrelation of the lowest three spectrogram rows.

    For lag j (in frames, j = 1 is zero lag) and row i of the magnitudes V:
      B(i, j) = mean_k V(i, k) * V(i, k + j - 1)
    b(j) averages B over those rows and is normalized by b(1), which
    cancels any global gain on the spectrogram.
    """
    if spec.n_frames < 2:
        raise FootfallError("spectrogram too small for autocorrelation",
                            shape=list(spec.values.shape))
    if spec.n_bins < _ROWS:
        raise FootfallError(f"spectrogram needs at least {_ROWS} rows", rows=spec.n_bins)
    P = spec.n_frames
    # per-row autocorrelation by a zero-padded FFT (no circular wrap-around),
    # summed over the rows; lag j-1 sums _ROWS * (P - j + 1) products
    n_fft = 1 << (2 * P - 1).bit_length()
    s = np.fft.rfft(np.abs(spec.values[:_ROWS]), n_fft, axis=1)
    b = np.fft.irfft((s.real**2 + s.imag**2).sum(axis=0), n_fft)[:P]
    b /= _ROWS * np.arange(P, 0, -1)
    if b[0] <= 0:
        raise FootfallError("silent spectrogram has no rhythm to normalize")
    return Asacc(b / b[0])


def _interp_freq(db: np.ndarray, k: int, bin_hz: float) -> float:
    """Parabolic vertex through db[k-1:k+2], clamped to half a bin."""
    f = k * bin_hz
    if 0 < k < db.size - 1:
        a, c, r = db[k - 1], db[k], db[k + 1]
        den = a - 2.0 * c + r
        if den < 0:
            f += float(np.clip(0.5 * (a - r) / den, -0.5, 0.5)) * bin_hz
    return f


def _forward_margin(db: np.ndarray, k: int) -> float:
    """Line height over the dB mean of itself and the next 20 bins."""
    return float(db[k] - db[k: k + _LOOKAHEAD + 1].mean())


def rhythm_present(b: Asacc, frame_rate: float) -> StepRhythm:
    """Accept when the gait comb clears the floor ahead of it by MARGIN_DB.

    The lag sequence is mean-removed and Fourier transformed. The dominant
    in-band bin is taken as the pace candidate, stepping down an octave
    when a comparably strong line sits at half its frequency (the dominant
    bin of a walk is sometimes the stride harmonic rather than the step
    fundamental). Footsteps are an impulse train, so a genuine pace line
    never comes alone: the margin test runs at the candidate and at its
    second harmonic, and the weaker of the two decides. Transient
    quasi-rhythms in voice babble put up a single wandering line at best,
    which fails the harmonic test even when it tops the band.
    """
    if len(b) < 2 * _LOOKAHEAD:
        raise FootfallError("b too short for 20-bin lookahead", length=len(b))
    if frame_rate <= 0:
        raise FootfallError("frame rate must be positive", frame_rate=frame_rate)
    x = b.b - b.b.mean()
    m = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, 1.0 / frame_rate)
    bin_hz = frame_rate / x.size
    db = 20.0 * np.log10(np.maximum(m, 1e-12 * max(m.max(), 1e-300)))

    lo_hz, hi_hz = PACE_BAND_HZ
    in_band = (freqs >= lo_hz) & (freqs <= hi_hz)
    if not in_band.any():
        raise FootfallError("frame rate too low to resolve the pace band",
                            frame_rate=frame_rate)
    k = int(np.flatnonzero(in_band)[np.argmax(db[in_band])])

    half = int(round(k / 2))
    lo = max(1, half - 1)
    if freqs[half] >= _SUBHARMONIC_MIN_HZ and \
            db[lo: half + 2].max() >= db[k] - _SUBHARMONIC_DROP_DB:
        k = lo + int(np.argmax(db[lo: half + 2]))
    if k + _LOOKAHEAD + 1 > db.size:
        raise FootfallError("b too short for 20-bin lookahead", length=len(b))
    f_hat = _interp_freq(db, k, bin_hz)

    octave = int(round(2.0 * f_hat / bin_hz))
    lo = max(1, octave - _HARMONIC_WINDOW)
    hi = min(octave + _HARMONIC_WINDOW + 1, db.size)
    kk = lo + int(np.argmax(db[lo:hi]))
    kk = min(kk, db.size - _LOOKAHEAD - 1)
    margin = min(_forward_margin(db, k), _forward_margin(db, kk))

    if margin > MARGIN_DB:
        return StepRhythm(True, float(f_hat), margin)

    searchable = (freqs >= _SEARCH_HZ[0]) & (freqs <= _SEARCH_HZ[1])
    g = int(np.flatnonzero(searchable)[np.argmax(db[searchable])])
    f_dom = _interp_freq(db, g, bin_hz)
    if not lo_hz <= f_dom <= hi_hz:
        return StepRhythm(False, float(f_dom), margin, "outside pace band")
    return StepRhythm(False, float(f_hat), margin, "no rhythmic peak")
