"""Detection front end: energy gating and labeled event assembly.

energy_gate cuts the capture into candidate segments wherever short-frame
RMS rises above a threshold; nearby segments are merged so one footstep
never splinters into several events. detect_events then classifies each
candidate with per-class Gaussian mixtures over cepstral features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FootfallError
from .gmm import _check_models, gmm_classify
from .mfc import mfc
from .types import (Waveform, _as_float_array, _as_positive, _as_real, _as_whole,
                    _check_instance)

MERGE_GAP_S = 0.05
_GATE_FACTOR = 4.0  # gate threshold over the median frame RMS


@dataclass
class Segment:
    """Half-open time interval [onset_s, onset_s + duration_s)."""

    onset_s: float
    duration_s: float

    def __post_init__(self):
        _as_positive(self.duration_s, "duration_s")

    @property
    def end_s(self) -> float:
        return self.onset_s + self.duration_s


@dataclass
class DetectionEvent(Segment):
    """A classified segment; label carries the winning class."""

    label: str
    log_likelihoods: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.log_likelihoods:
            best = max(self.log_likelihoods.values())
            if self.log_likelihoods.get(self.label) != best:
                raise FootfallError("label must carry the highest log-likelihood",
                                    label=self.label)

    def to_dict(self) -> dict:
        return {"onset_s": self.onset_s, "duration_s": self.duration_s,
                "label": self.label, "log_likelihoods": dict(self.log_likelihoods)}


def _frame_rms(x: np.ndarray, frame: int) -> np.ndarray:
    frame = _as_whole(frame, "frame")
    n_full = x.size // frame
    out = np.sqrt(np.mean(x[: n_full * frame].reshape(n_full, frame) ** 2, axis=1)) \
        if n_full else np.zeros(0)
    tail = x[n_full * frame:]
    if tail.size:
        out = np.append(out, np.sqrt(np.mean(tail ** 2)))
    return out


def energy_gate(w: Waveform, frame: int, threshold: float) -> list:
    """Maximal runs of frames with RMS above threshold, gaps < MERGE_GAP_S closed."""
    _check_instance(w, Waveform, "w")
    levels = _frame_rms(w.samples, frame)
    active = levels > _as_real(threshold, "threshold")
    segments = []
    start = None
    for i, on in enumerate(np.append(active, False)):
        if on and start is None:
            start = i
        elif not on and start is not None:
            segments.append((start, i))
            start = None
    dt = frame / w.sample_rate
    merged = []
    for s, e in segments:
        onset, end = s * dt, min(e * dt, w.duration)
        if merged and onset - merged[-1][1] < MERGE_GAP_S:
            merged[-1][1] = end
        else:
            merged.append([onset, end])
    return [Segment(onset, end - onset) for onset, end in merged]


def gate_threshold(w: Waveform, frame: int) -> float:
    """Threshold at four times the median frame RMS.

    The median tracks the noise floor because footsteps are sparse in time.
    """
    _check_instance(w, Waveform, "w")
    levels = _frame_rms(w.samples, frame)
    if levels.size == 0:
        raise FootfallError("waveform too short to estimate a gate threshold")
    return _GATE_FACTOR * float(np.median(levels))


def classification_features(coeffs) -> np.ndarray:
    """Cepstral frames minus coefficient 0, so features ignore absolute level."""
    coeffs = _as_float_array(coeffs, "coeffs", (None, None))
    if coeffs.shape[1] < 2:
        raise FootfallError("need at least two cepstral coefficients per frame",
                            shape=list(coeffs.shape))
    return coeffs[:, 1:]


def detect_events(w: Waveform, models: dict, frame: int,
                  window_len: int = 256, hop: int = 128) -> list:
    """Gate, featurize, and classify: one DetectionEvent per candidate segment.

    models maps class label to a GmmModel trained on classification_features
    output; the gate threshold is gate_threshold(w, frame).
    """
    _check_models(models)
    events = []
    for seg in energy_gate(w, frame, gate_threshold(w, frame)):
        a = int(seg.onset_s * w.sample_rate)
        b = int(seg.end_s * w.sample_rate)
        clip = Waveform(w.samples[a:b], w.sample_rate)
        if clip.samples.size < window_len:
            continue
        feats = classification_features(mfc(clip, window_len=window_len, hop=hop))
        label, lls = gmm_classify(models, feats)
        events.append(DetectionEvent(seg.onset_s, seg.duration_s, label, lls))
    return events
