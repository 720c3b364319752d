"""Quality of one capture against its ground truth, and the output checks.

Nothing here runs inside a timed region.
"""

from __future__ import annotations

import numpy as np

from footfall.bss import sdr, sir

from workloads import PERSONAS

STEP_TOL_S = 0.1     # a found onset within this of a true step is a hit
LEAD_S = 0.05        # a segment starting this much after a step still holds it
SUM_RTOL = 1e-6      # stems must rebuild the mixture to this relative RMS
LEVEL_TOL_DB = 1e-6  # achieved SIR/SNR against target
USERS = [p.name for p in PERSONAS]  # identity label order of the net


def match_steps(found, truth, tol: float = STEP_TOL_S) -> list[tuple[int, int]]:
    """One-to-one pairs (i found, j true) with |found - true| <= tol.

    Both lists are sorted; a greedy sweep in time order gives a maximum
    matching because the tolerance is the same for every pair.
    """
    pairs = []
    i = j = 0
    while i < len(found) and j < len(truth):
        d = found[i] - truth[j]
        if abs(d) <= tol:
            pairs.append((i, j))
            i += 1
            j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    return pairs


def f1(hits: int, n_found: int, n_true: int) -> float:
    total = n_found + n_true
    return 2.0 * hits / total if total else 1.0


def true_rate(times) -> float:
    """Step rate of one walker, 1 / median inter-step interval."""
    return 1.0 / float(np.median(np.diff(np.asarray(times))))


def segment_class(onset: float, end: float, truth, step_times) -> str:
    """True class of a gated segment.

    "footstep" when a step falls in it (or just before it, up to LEAD_S);
    otherwise whichever of the voice and noise stems carries more energy.
    """
    if np.any((step_times >= onset - LEAD_S) & (step_times < end)):
        return "footstep"
    if truth.voice_stem is None:
        return "noise"
    fs = truth.sample_rate
    a, b = int(onset * fs), max(int(end * fs), int(onset * fs) + 1)
    voice = float(np.sum(truth.voice_stem[0, a:b] ** 2))
    noise = float(np.sum(truth.noise_stem[0, a:b] ** 2))
    return "voice" if voice > noise else "noise"


def quality(cap, res) -> dict:
    """Raw per-capture quantities; aggregate() pools them over a run."""
    truth = cap.truth
    steps = truth.step_times()
    walker = steps.size > 0
    q = {"walker": walker, "accept": bool(res.rhythm.accept),
         "margin_db": float(res.rhythm.margin_db)}
    labels = [segment_class(e.onset_s, e.onset_s + e.duration_s, truth, steps)
              for e in res.events]
    q["event_hits"] = sum(e.label == t for e, t in zip(res.events, labels))
    q["events"] = len(res.events)
    if not walker:
        return q
    q["pace_err_hz"] = abs(res.rhythm.frequency_hz - true_rate(steps))
    found = res.steps or []
    pairs = match_steps(found, list(steps))
    q.update(step_hits=len(pairs), found=len(found), true=int(steps.size))
    if res.final is None:
        return q
    clean = truth.footstep_mix()[0]
    q["sdr_db"] = sdr(res.final, clean)
    if truth.voice_stem is not None:
        voice, noise = truth.voice_stem[0], truth.noise_stem[0]
        q["sir_gain_db"] = (sir(res.foot, clean, [voice], noise)
                            - sir(cap.mix, clean, [voice], noise))
    if res.probs is not None:
        true_of = {found[i]: truth.steps[j].persona for i, j in pairs}
        scored = [(USERS.index(true_of[t]), p) for t, p in zip(res.patch_onsets, res.probs)
                  if t in true_of]
        q.update(id_hits=sum(int(np.argmax(p) == u) for u, p in scored), id_n=len(scored))
    return q


def check_capture(cap, res) -> list[str]:
    """Output checks on one analysis capture; returns the names that failed."""
    bad = []
    if (res.rhythm.reason is None) != bool(res.rhythm.accept):
        bad.append("rhythm reason set iff reject")
    if res.foot is not None:
        n = cap.mix.samples.size
        if res.foot.samples.size != n or res.voice.samples.size != n:
            bad.append("nmf stems at input length")
        else:
            resid = res.foot.samples + res.voice.samples - cap.mix.samples
            if np.sqrt(np.mean(resid ** 2)) > SUM_RTOL * np.sqrt(np.mean(cap.mix.samples ** 2)):
                bad.append("nmf stems sum to mixture")
    if res.final is not None and not np.all(np.isfinite(res.final.samples)):
        bad.append("final stem finite")
    return bad


def _db(a, b) -> float:
    return 10.0 * np.log10(float(np.sum(a * a)) / float(np.sum(b * b)))


def check_synthesis(scene, mix, truth) -> list[str]:
    """Output checks on one rendered scene."""
    bad = []
    foot = truth.footstep_mix()
    total = foot + truth.voice_stem + truth.noise_stem
    if mix.samples.shape != total.shape or \
            np.max(np.abs(mix.samples - total)) > 1e-9 * np.max(np.abs(mix.samples)):
        bad.append("mixture equals footstep + voice + noise stems")
    if abs(_db(foot, truth.voice_stem) - scene.target_sir_db) > LEVEL_TOL_DB:
        bad.append("achieved SIR equals target")
    if abs(_db(foot, truth.noise_stem) - scene.target_snr_db) > LEVEL_TOL_DB:
        bad.append("achieved SNR equals target")
    return bad


def aggregate(qs: list[dict]) -> dict:
    """Pool per-capture quantities into the quality metrics that apply."""
    out = {}
    if not qs:
        return out
    out["rhythm_correct"] = float(np.mean([q["accept"] == q["walker"] for q in qs]))
    walk = [q for q in qs if q["walker"]]
    if walk:
        out["pace_err_hz"] = float(np.median([q["pace_err_hz"] for q in walk]))
        hits = sum(q["step_hits"] for q in walk)
        out["step_f1"] = f1(hits, sum(q["found"] for q in walk), sum(q["true"] for q in walk))
    n_events = sum(q["events"] for q in qs)
    if n_events:
        out["event_acc"] = sum(q["event_hits"] for q in qs) / n_events
    for key in ("sir_gain_db", "sdr_db"):
        vals = [q[key] for q in qs if key in q]
        if vals:
            out[key] = float(np.median(vals))
    id_n = sum(q.get("id_n", 0) for q in qs)
    if id_n:
        out["id_acc"] = sum(q.get("id_hits", 0) for q in qs) / id_n
    return out
