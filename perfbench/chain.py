"""The analysis chain the benchmark times, joined from the package's public
functions: detect, rhythm, separate, clean up, find steps, identify.

Window and hop of the rhythm and separation stages are fixed in samples, as
the package defaults are, so a 48 kHz capture carries 3x the frames of a
16 kHz one. The detector and the identification patches instead scale their
windows with the rate, so a patch covers the same band and time span (the
lowest 1 kHz over 16 x 16 ms) at every rate and one net serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from footfall.detect import classification_features, detect_events, energy_gate, gate_threshold
from footfall.dsp import stft
from footfall.gmm import gmm_fit
from footfall.idnet import PATCH_SHAPE, TrainConfig, TrainSet, forward, train_adversarial
from footfall.mfc import mfc
from footfall.nmf import nmf_separate
from footfall.rhythm import asacc, rhythm_present
from footfall.types import Waveform
from footfall.wiener import wiener_residual_suppress

WINDOW, HOP = 512, 256
GMM_K = 4
CLASSES = ("footstep", "voice", "noise")
# The default TrainConfig lr of 0.01 raised "training diverged" on these
# spectrogram patches; 0.003 trains. With about 100 patches the default
# batch of 32 makes three updates an epoch and learns nothing in a few
# epochs; batch 8 reaches held-out accuracy above 0.9 in four, which keeps
# set-up short enough to repeat within a run.
TRAIN = TrainConfig(epochs=4, lr=0.003, batch=8, seed=0)


def gate_frame(fs: int) -> int:
    return fs // 100


def mfc_params(fs: int) -> tuple[int, int]:
    return 256 * fs // 16000, 128 * fs // 16000


def patch_params(fs: int) -> tuple[int, int]:
    return 512 * fs // 16000, 256 * fs // 16000


@dataclass
class Analyzer:
    """What the chain needs before its first capture."""

    models: dict
    net: object
    train_log: list
    train_patches: int


@dataclass
class Result:
    """Everything one capture produced; stages the chain skipped stay None."""

    events: list
    rhythm: object
    lags: int
    foot: Waveform | None = None
    voice: Waveform | None = None
    final: Waveform | None = None
    steps: list | None = None
    probs: np.ndarray | None = None
    patch_onsets: list | None = None


def cut_patches(mags: np.ndarray, onsets_s, hop: int, fs: int):
    """32 x 16 patches of the lowest bins from each onset frame, unit peak.

    Returns (patches, onsets kept); a silent patch is dropped.
    """
    bins, frames = PATCH_SHAPE
    n = mags.shape[1]
    out, kept = [], []
    if n < frames:
        return np.zeros((0, bins, frames)), kept
    for t in onsets_s:
        k = min(max(int(t * fs / hop), 0), n - frames)
        p = mags[:bins, k:k + frames]
        peak = float(p.max())
        if peak > 0.0:
            out.append(p / peak)
            kept.append(t)
    return (np.stack(out) if out else np.zeros((0, bins, frames))), kept


def setup(banks, fs: int, tr) -> Analyzer:
    """Fit the detector's class mixtures and train the identification net."""
    win, hop = mfc_params(fs)
    models = {}
    for label in CLASSES:
        clips = [Waveform(c, fs) for c in banks.clips[label]]
        feats = np.vstack([classification_features(mfc(c, win, hop)) for c in clips])
        with tr.span("gmm.gmm_fit"):
            models[label] = gmm_fit(feats, k=GMM_K, seed=1)
    x, users, domains = [], [], []
    for mix, truth, user, domain in banks.train_scenes:
        pw, ph = patch_params(mix.sample_rate)
        with tr.span("dsp.stft"):
            spec = stft(mix, pw, ph)
        patches, _ = cut_patches(spec.magnitudes, truth.step_times(), ph, mix.sample_rate)
        x.append(patches)
        users += [user] * len(patches)
        domains += [domain] * len(patches)
    data = TrainSet(np.concatenate(x), np.array(users), np.array(domains))
    with tr.span("idnet.train_adversarial"):
        trained = train_adversarial(data, TRAIN)
    return Analyzer(models, trained.net, trained.log, int(data.x.shape[0]))


def capture(an: Analyzer, mix: Waveform, tr) -> Result:
    """Run the chain on one mono capture; stops after the rhythm test rejects."""
    fs = mix.sample_rate
    frame = gate_frame(fs)
    win, hop = mfc_params(fs)
    with tr.span("detect.detect_events"):
        events = detect_events(mix, an.models, frame, window_len=win, hop=hop)
    with tr.span("dsp.stft"):
        spec = stft(mix, WINDOW, HOP)
    with tr.span("rhythm.asacc"):
        b = asacc(spec)
    with tr.span("rhythm.rhythm_present"):
        rhythm = rhythm_present(b, spec.frame_rate)
    out = Result(events, rhythm, len(b))
    if not rhythm.accept:
        return out
    with tr.span("nmf.nmf_separate"):
        out.foot, out.voice = nmf_separate(mix, rhythm.frequency_hz)
    with tr.span("dsp.stft"):
        floor = stft(out.voice, WINDOW, HOP)
    with tr.span("wiener.wiener_residual_suppress"):
        out.final = wiener_residual_suppress(out.foot, floor)
    with tr.span("detect.energy_gate"):
        segments = energy_gate(out.final, frame, gate_threshold(out.final, frame))
    out.steps = [s.onset_s for s in segments]
    pw, ph = patch_params(fs)
    with tr.span("dsp.stft"):
        pspec = stft(out.final, pw, ph)
    patches, out.patch_onsets = cut_patches(pspec.magnitudes, out.steps, ph, fs)
    if len(patches):
        with tr.span("idnet.forward"):
            _, out.probs, _ = forward(an.net, patches)
    return out
