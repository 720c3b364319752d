"""One benchmark run: render inputs, time set-up, then run captures back to
back for the requested time and score them.

The load is a closed loop with one caller: each capture starts when the
previous one has been checked and scored, and only the capture itself is
timed. Captures cycle through a fixed pool of distinct inputs, a whole round
at a time so the two walking personas stay balanced.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from collections import Counter

import numpy as np

import chain
import score
from spans import NullTracer, Tracer
from workloads import PERSONAS, WORKLOADS, render_banks, render_capture, scene_spec, synthesize

# Set-up repeats at least this many times and until this much time is spent,
# so a set-up of milliseconds is still a median over many repeats.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

# name: (unit, better); the end-to-end metrics a workload reports
END_TO_END = {
    "capture_s_p50": ("s", "lower"),
    "xrt": ("x", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "rhythm_correct": ("ratio", "higher"),
    "pace_err_hz": ("Hz", "lower"),
    "step_f1": ("ratio", "higher"),
    "event_acc": ("ratio", "higher"),
    "sir_gain_db": ("dB", "higher"),
    "sdr_db": ("dB", "higher"),
    "id_acc": ("ratio", "higher"),
}

# Floors a run must clear for its outputs to count as correct. Each sits
# well below every value seen over many seeds, so it catches a broken stage,
# not a hard seed. Metrics of a stage that is already broken on a workload
# (see README, known defects) carry no floor there.
GUARDS = {
    "babble16k": {"rhythm_correct": 0.75, "step_f1": 0.6, "sir_gain_db": 10.0, "sdr_db": 3.0},
    "quiet48k": {"rhythm_correct": 0.75},
    "nowalk60s": {"rhythm_correct": 0.6},
    "synth48k": {},
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State of one run; `report()` and `layer_metrics()` read the metrics off it."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[workload]
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.tracer = Tracer() if trace else NullTracer()
        self.times: list[float] = []          # untraced capture wall times
        self.traced_times: list[float] = []   # traced capture wall times
        self.setup_times: list[float] = []
        self.failures: Counter = Counter()
        self.quality: dict[int, dict] = {}    # pool index -> score.quality
        self.digests: dict[int, bytes] = {}
        self.counts: list[dict] = []           # per capture, from outputs
        self.attempted = 0
        self.failed = 0
        self.audio_s = 0.0

    # -- inputs and set-up ------------------------------------------------
    def prepare(self):
        w = self.w
        if w.kind == "analysis":
            self.pool = [render_capture(w, self.seed, i) for i in range(w.pool)]
            banks = render_banks(w, self.seed)
            make = lambda tr: chain.setup(banks, w.sample_rate, tr)  # noqa: E731
        else:
            make = lambda tr: [scene_spec(w, self.seed, i) for i in range(w.pool)]  # noqa: E731
        tr = self.tracer
        while len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_MIN_S:
            with tr.span("bench.setup"):
                t0 = time.perf_counter()
                state = make(tr)
                self.setup_times.append(time.perf_counter() - t0)
        self.state = state

    # -- one capture ------------------------------------------------------
    def _one(self, index: int, tr):
        """Run and time input `index`; returns (seconds, output or None, error)."""
        w = self.w
        k = index % w.pool
        t0 = time.perf_counter()
        try:
            if w.kind == "analysis":
                out = chain.capture(self.state, self.pool[k].mix, tr)
            else:
                out = synthesize(w, self.state[k], self.seed, k, tr)
            err = None
        except Exception as exc:  # counted into error_rate, never raised past the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, out, err

    def _score(self, index: int, out, err):
        """Checks on every capture; quality once per distinct input."""
        w = self.w
        k = index % w.pool
        self.attempted += 1
        if err is not None:
            bad = [err]
        elif w.kind == "analysis":
            bad = score.check_capture(self.pool[k], out)
            digest = _digest(out)
            self.counts.append(_counts(out))
        else:
            bad = score.check_synthesis(*out)
            digest = _hash(out[1].samples)
            self.counts.append({"scenes.steps": len(out[2].steps)})
        if err is None and self.digests.setdefault(k, digest) != digest:
            bad.append("same input gives the same output")
        if not bad and w.kind == "analysis" and k not in self.quality:
            self.quality[k] = score.quality(self.pool[k], out)
        if bad:
            self.failed += 1
            self.failures.update(bad)

    def warm_up(self):
        _, out, err = self._one(0, NullTracer())
        if err is not None:
            self.failures.update(["warm-up: " + err])

    def measure(self):
        """Whole rounds until the untraced captures add up to `seconds`.

        A round is one capture per walking persona (`scene_spec` alternates
        them by input), so the paces stay balanced. A traced run takes each
        input twice, traced and untraced, and swaps the order every round so
        neither pass always runs on caches the other warmed.
        """
        w = self.w
        round_size = len(PERSONAS) if w.kind == "analysis" and w.walker else 1
        index = rounds = 0
        spent = 0.0
        while spent < self.seconds:
            for _ in range(round_size):
                passes = (self.tracer, NullTracer()) if self.trace else (NullTracer(),)
                for tr in (passes if rounds % 2 == 0 else passes[::-1]):
                    with tr.patched(), tr.span("bench.capture"):
                        dt, out, err = self._one(index, tr)
                    (self.traced_times if tr.enabled else self.times).append(dt)
                    self._score(index, out, err)
                spent += self.times[-1]
                self.audio_s += w.duration_s
                index += 1
            rounds += 1
        self.timed_s = spent

    # -- results ----------------------------------------------------------
    def report(self) -> dict:
        """Every end-to-end metric that applies to this workload."""
        times = self.times
        values = {
            "capture_s_p50": statistics.median(times),
            "xrt": self.audio_s / self.timed_s,
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": _peak_rss_mb(),
            "error_rate": self.failed / self.attempted,
        }
        values.update(score.aggregate([self.quality[k] for k in sorted(self.quality)]))
        rep = {}
        for name, (unit, better) in END_TO_END.items():
            if name in values:
                rep[name] = {"value": float(values[name]), "unit": unit, "better": better}
        rep["capture_s_p50"]["n"] = len(times)
        rep["capture_s_p50"]["samples"] = [round(t, 4) for t in times]
        rep["setup_s"]["n"] = len(self.setup_times)
        return rep

    def guard_failures(self, rep: dict) -> list[str]:
        return [f"{name} {rep[name]['value']:.4g} below floor {floor}"
                for name, floor in GUARDS[self.w.name].items()
                if name in rep and rep[name]["value"] < floor]


# span name -> per-layer self-time metric; a capture span's own self time
# is the glue no layer covers
SELF_TIME = {
    "bench.capture": "bench.glue_s",
    "nmf.nmf_separate": "nmf.separate_s",
    "nmf.voice_templates": "nmf.templates_s",
    "nmf.nmf_fit": "nmf.fit_s",
    "rhythm.asacc": "rhythm.asacc_s",
    "rhythm.rhythm_present": "rhythm.test_s",
    "dsp.stft": "dsp.stft_s",
    "dsp.analyze_padded": "dsp.analyze_s",
    "dsp.synthesize_padded": "dsp.synth_s",
    "wiener.wiener_residual_suppress": "wiener.s",
    "detect.detect_events": "detect.s",
    "detect.energy_gate": "detect.s",
    "mfc.mfc": "mfc.s",
    "gmm.gmm_classify": "gmm.classify_s",
    "idnet.forward": "idnet.forward_s",
    "scenes.render_scene": "scenes.render_s",
    "footsteps.place_footstep": "footsteps.place_s",
    "footsteps.footstep_parts": "footsteps.parts_s",
    "interferers.babble": "interferers.babble_s",
    "interferers.pink_noise": "interferers.pink_s",
}

# (name, unit, better); every traced run reports all of them, 0 for a layer
# the workload never reaches. Work counts are better lower.
PER_LAYER = [(name, "s", "lower") for name in dict.fromkeys(SELF_TIME.values())] + [
    ("nmf.fits", "count", "lower"), ("nmf.sweeps", "count", "lower"),
    ("nmf.pinned_share", "ratio", "higher"), ("nmf.div_ratio", "ratio", "lower"),
    ("rhythm.lags", "count", "lower"), ("rhythm.margin_db", "dB", "higher"),
    ("dsp.frames", "count", "lower"), ("wiener.frames", "count", "lower"),
    ("detect.segments", "count", "lower"), ("detect.footstep_share", "ratio", "higher"),
    ("idnet.patches", "count", "lower"), ("idnet.train_epoch_s", "s", "lower"),
    ("idnet.train_patches", "count", "lower"), ("idnet.val_acc", "ratio", "higher"),
    ("gmm.fit_s", "s", "lower"), ("gmm.em_iters", "count", "lower"),
    ("scenes.steps", "count", "lower"), ("footsteps.calls", "count", "lower"),
    ("bench.capture_s_mean", "s", "lower"), ("bench.trace_overhead_s", "s", "lower"),
]


def layer_metrics(run: Run) -> dict:
    """Per-layer numbers of a traced run, averaged per traced capture.

    The self times of one capture's spans add up to its capture span, so
    the per-layer means plus bench.glue_s equal bench.capture_s_mean.
    """
    tr = run.tracer
    own = tr.self_times()
    kids = tr.children()
    spans = tr.spans
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    roots = [i for i, s in enumerate(spans) if s.name == "bench.capture"]
    div_ratios = []
    separations = pinned = 0
    for r in roots:
        sub = tr.subtree(r, kids)
        names = {spans[i].name for i in sub}
        for i in sub:
            s = spans[i]
            if s.name not in SELF_TIME:
                raise RuntimeError(f"span {s.name} has no per-layer metric")
            m[SELF_TIME[s.name]] += own[i]
            if s.name in ("nmf.nmf_fit", "nmf.voice_templates"):
                m["nmf.fits"] += 1
                m["nmf.sweeps"] += s.attrs["sweeps"]
            if s.name == "nmf.nmf_fit":
                div_ratios.append(s.attrs["div1"] / s.attrs["div0"])
            if s.name == "dsp.analyze_padded":
                m["dsp.frames"] += s.attrs["frames"]
                if spans[s.parent].name == "wiener.wiener_residual_suppress":
                    m["wiener.frames"] += s.attrs["frames"]
            if s.name == "footsteps.place_footstep":
                m["footsteps.calls"] += 1
        separations += "nmf.nmf_separate" in names
        pinned += "nmf.nmf_separate" in names and "nmf.voice_templates" in names
        m["bench.capture_s_mean"] += spans[r].end - spans[r].start
    n = max(len(roots), 1)
    for name, unit, _ in PER_LAYER:
        if unit == "s" or name in ("nmf.fits", "nmf.sweeps", "dsp.frames", "wiener.frames",
                                   "footsteps.calls"):
            m[name] /= n
    m["nmf.pinned_share"] = pinned / separations if separations else 0.0
    m["nmf.div_ratio"] = statistics.median(div_ratios) if div_ratios else 0.0
    counts = run.counts
    for name in ("rhythm.lags", "detect.segments", "idnet.patches", "scenes.steps"):
        vals = [c[name] for c in counts if name in c]
        m[name] = float(np.mean(vals)) if vals else 0.0
    margins = [c["rhythm.margin_db"] for c in counts if "rhythm.margin_db" in c]
    m["rhythm.margin_db"] = statistics.median(margins) if margins else 0.0
    segments = sum(c.get("detect.segments", 0) for c in counts)
    m["detect.footstep_share"] = (sum(c.get("detect.footsteps", 0) for c in counts) / segments
                                  if segments else 0.0)
    m["bench.trace_overhead_s"] = (statistics.median(run.traced_times)
                                   - statistics.median(run.times))
    m.update(setup_metrics(run, kids))
    return m


def setup_metrics(run: Run, kids: dict) -> dict:
    """Set-up layers, as the median over the set-up repeats."""
    m = {}
    if run.w.kind != "analysis":
        return m
    tr = run.tracer
    fit, epoch = [], []
    for r, s in enumerate(tr.spans):
        if s.name != "bench.setup":
            continue
        sub = [tr.spans[i] for i in tr.subtree(r, kids)]
        fit.append(sum(x.end - x.start for x in sub if x.name == "gmm.gmm_fit"))
        epoch.append(sum(x.end - x.start for x in sub if x.name == "idnet.train_adversarial")
                     / chain.TRAIN.epochs)
    an = run.state
    m["gmm.fit_s"] = statistics.median(fit)
    m["gmm.em_iters"] = float(sum(len(g.history) for g in an.models.values()))
    m["idnet.train_epoch_s"] = statistics.median(epoch)
    m["idnet.train_patches"] = float(an.train_patches)
    m["idnet.val_acc"] = float(an.train_log[-1]["val_accuracy"])
    return m


def _hash(x: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).digest()


def _digest(out) -> bytes:
    """Fingerprint of everything an analysis capture decided and produced."""
    parts = [repr([(e.onset_s, e.duration_s, e.label) for e in out.events]),
             repr((out.rhythm.accept, out.rhythm.frequency_hz, out.rhythm.margin_db)),
             repr(out.steps)]
    blob = "|".join(parts).encode()
    for x in (out.final, out.probs):
        if x is not None:
            blob += _hash(getattr(x, "samples", x))
    return blob


def _counts(out) -> dict:
    """Work counts of one analysis capture, read from its outputs."""
    labels = [e.label for e in out.events]
    return {"rhythm.lags": out.lags, "rhythm.margin_db": out.rhythm.margin_db,
            "detect.segments": len(labels), "detect.footsteps": labels.count("footstep"),
            "idnet.patches": 0 if out.probs is None else len(out.probs)}
