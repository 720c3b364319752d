"""Two-source spectral factorization that pulls footsteps out of speech.

The power spectrogram is factored as w @ h with nonnegative templates and
activations under the Itakura-Saito divergence, whose scale invariance suits
audio: a relative error in a quiet bin costs as much as the same relative
error in a loud one, so low-level impact tails are not sacrificed to loud
voice harmonics. The component set is split in two, and the footstep share
starts from activations opened only at the observed impacts, one per step
period (_onset_comb), so rhythmic energy settles there while sustained speech
lands in the rest. The power factored is |values|**2 of the mixture's
complex STFT; the footstep stem is those values scaled in place by a
per-bin Wiener mask and inverted, and the voice stem is the mixture minus
the footstep stem, so the two sum back to the input exactly. Every capture
is separated at 16 kHz: it is resampled to 16 kHz on entry and its footstep
stem back to the capture rate on exit, so the frames, guards and onset tail
span the same time at every rate; the footstep stem carries nothing above
8 kHz, where clean footsteps hold at most 4e-6 of their energy.

The fits use the square-root multiplicative updates of Fevotte & Idier
(Neural Computation 2011) and, as there, stop once the divergence falls by
no more than a relative _TOL in one sweep, after at most ITERS sweeps. The
one exception is the blind fit over a weak, stationary floor between the
steps (pink noise, no voice): after a dozen or so sweeps the updates lower
the divergence there only by moving that floor into the footstep
components, so that fit stops after at most QUIET_ITERS sweeps. A voice as
weak as that floor still swings from syllable to pause, which the
stationarity gap of the step-free frames tells apart, and keeps ITERS. The
sweeps work in float32; inputs and the returned model are float64. The
divergence track of a fit comes from the p/v ratios the sweeps form anyway,
summed in float32, and is_divergence is the float64 reference it is tested
against. Each fit of at least _SPLIT_FRAMES frames cuts the frame axis
into _PARTS fixed halves; the calling thread runs the steps local to a
frame column on half 0 while one pool worker runs them on half 1, in one
dispatch per sweep. A smaller fit sweeps whole on the calling thread and
starts no thread. The shares of the template step and of the divergence
are added in a fixed order, so the result never depends on the core count
or on thread timing. nmf_separate divides the power by its
peak, rounds it to float32 once and zeroes the bins above the capture's
own Nyquist frequency, which hold only FFT rounding noise once a capture
below 16 kHz is upsampled; so every fit, the refinement pass's included,
sweeps the same bits at any mixture level.

nmf_separate is the module's entry point. nmf_fit, which returns the
fitted NmfModel with its divergence track, and voice_templates are the two
fits it runs, and stay public so the fits can be driven and timed alone.
The step-free frames, the onset comb and the masks are private steps of
nmf_separate, which hands each one a power it has already checked.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.signal import resample_poly

from .dsp import analyze_padded, synthesize_padded
from .errors import FootfallError
from .types import Waveform, _as_float_array, _as_positive, _as_whole, _check_instance

R_FOOTSTEP = 8
R_VOICE = 24  # speech needs the wider template budget for harmonic variety
ITERS = 120  # most sweeps of one fit
QUIET_ITERS = 16  # most sweeps of the blind fit over a weak floor between steps
_TOL = 3e-4  # a fit stops once one sweep lowers the divergence by no more than this share
_WINDOW_LEN = 512
_HOP = 256
_RATE = 16000  # Hz; every capture is separated at this rate
_PARTS = 2  # fixed frame halves of a fit: the calling thread sweeps one, a pool worker the other
# Fewest frames a fit splits into halves. Below it one thread wake-up per
# sweep costs more than the half-sweep it takes off the calling thread.
_SPLIT_FRAMES = 256

# Relative spectral floor: keeps the divergence finite over padded frames.
_POWER_FLOOR = 1e-10
_ONSET_TAIL = 8  # frames of decay each onset window keeps at most
_LOUD_FRAC = 0.3  # share of frames that may hold footstep energy
_GUARD = 6  # frames of impact decay on each side of a loud frame
_WEAK_FLOOR = 0.02  # step-free frame energy over the mean frame energy, at most (-17 dB)
# Stationarity gap of the step-free frames over _GAP_BINS, at most: a
# stationary Gaussian floor reads Euler's gamma (0.58), a voice reads more.
_STATIONARY_GAP = 1.0
_GAP_BINS = 128  # bins below 4 kHz at _RATE, where speech carries its syllabic swings


@dataclass
class NmfModel:
    """Factorization state: templates w (bins x components), activations h.

    The first R_FOOTSTEP components belong to the footstep source, the
    remaining R_VOICE to the voice source. Template columns carry unit L1
    norm; all the scale lives in h.
    """

    w: np.ndarray
    h: np.ndarray


def is_divergence(p: np.ndarray, v: np.ndarray) -> float:
    """Itakura-Saito divergence between observed power p and model v."""
    r = p / v
    return float(np.sum(r - np.log(r) - 1.0))


def _onset_comb(power: np.ndarray, period_frames: float,
                rng: np.random.Generator) -> np.ndarray:
    """Periodic comb snapped to the observed impact onsets.

    Energy peaks at least 0.6 period apart, visited loudest first, give the
    onset set; each opens a short activation window for the attack and the
    decay tail. The exact zeros between windows are absorbing under
    multiplicative updates, so footstep components initialized this way can
    never drift into modelling the continuous interference. When no clear
    impact stands out, every frame is opened. power and period_frames come
    checked from nmf_separate.
    """
    energy = power.sum(axis=0)
    n = energy.size
    min_gap = max(1, int(round(0.6 * period_frames)))
    floor = np.quantile(energy, 0.4)
    want = int(n / period_frames) + 2
    onsets: list[int] = []
    for k in np.argsort(energy)[::-1]:
        if energy[k] <= 2.0 * floor or len(onsets) >= want:  # a flat power opens none
            break
        if all(abs(k - o) >= min_gap for o in onsets):
            onsets.append(int(k))
    h = np.zeros((R_FOOTSTEP, n)) if onsets else np.ones((R_FOOTSTEP, n))
    tail = min(_ONSET_TAIL, max(1, int(0.35 * period_frames)))
    for o in onsets:
        h[:, max(0, o - 1): min(n, o + tail + 1)] = 1.0
    return h * rng.uniform(0.9, 1.1, size=h.shape)


def _floored(power) -> np.ndarray:
    p = _as_float_array(power, "power", (None, None), nonnegative=True)
    peak = float(p.max()) if p.size else 0.0
    if peak <= 0.0:
        raise FootfallError("mixture has no energy")
    return np.maximum(p, _POWER_FLOOR * peak)


class _Half:
    """One fixed frame part of a fit: float32 copies of its p and h columns.

    A fit of at least _SPLIT_FRAMES frames has two, swept at once on the
    calling thread and one pool worker; a smaller fit has one, holding every
    frame. Each step here reads its own columns and the shared templates w
    only, and every buffer is allocated once per fit. The step sets its own
    np.errstate because it does not carry into pool threads: the isfinite
    check on the track is the real guard, and overflow en route to it must
    not warn.
    """

    def __init__(self, p32: np.ndarray, h32: np.ndarray, n_free_cols: int):
        self.p = p32
        self.h = h32
        self.h_next = np.empty_like(h32)
        self.n_free = n_free_cols
        self.v = np.empty_like(p32)
        self.inv = np.empty_like(p32)
        self.ratio = np.empty_like(p32)
        self.scratch = np.empty_like(p32)  # log(p/v) for the track, then p/v^2
        self.h_den = np.empty_like(h32)
        self.w_num = np.empty((p32.shape[0], n_free_cols), dtype=np.float32)
        self.w_den = np.empty_like(self.w_num)

    def step(self, w32: np.ndarray, scale: np.ndarray) -> tuple[float, float]:
        """One sweep's work local to this half; returns its float32 track partials.

        Takes the last template step's renormalization into h (all ones on
        the first call), sums p/v and log(p/v) of the model w @ h for the
        track, runs the next sweep's h-step into h_next and fills this
        half's w_num and w_den from it. h itself is left as the track saw it.
        """
        with np.errstate(all="ignore"):
            self.h[:self.n_free] *= scale.T
            np.matmul(w32, self.h, out=self.v)
            np.reciprocal(self.v, out=self.inv)
            np.multiply(self.p, self.inv, out=self.ratio)
            np.log(self.ratio, out=self.scratch)
            partials = float(self.ratio.sum()), float(self.scratch.sum())
            np.multiply(self.ratio, self.inv, out=self.scratch)
            np.matmul(w32.T, self.scratch, out=self.h_next)
            np.matmul(w32.T, self.inv, out=self.h_den)
            self.h_next /= self.h_den
            np.sqrt(self.h_next, out=self.h_next)
            self.h_next *= self.h
            hf = self.h_next[:self.n_free]
            np.matmul(w32, self.h_next, out=self.v)
            np.reciprocal(self.v, out=self.inv)
            np.multiply(self.p, self.inv, out=self.scratch)
            self.scratch *= self.inv
            np.matmul(self.scratch, hf.T, out=self.w_num)
            np.matmul(self.inv, hf.T, out=self.w_den)
            return partials


def _mu_sweeps(p, w, h, n_free_cols, iters) -> np.ndarray:
    """In-place multiplicative update sweeps; returns the divergence track.

    Updates use the square-root exponent, the majorization-minimization form
    of the Itakura-Saito updates, so the divergence never rises. Only the
    first n_free_cols template columns move; the rest stay fixed (their
    activations still adapt), which lets a caller pin pre-fitted templates.
    The sweeps stop after the first one that lowers the divergence by no more
    than _TOL of its previous value, or after iters; the track holds the
    starting divergence and one entry per sweep run.

    The sweeps run in float32 on copies of p / max(p), w and h; dividing by
    the peak first makes the float32 sweeps the same at any mixture level.
    A fit of at least _SPLIT_FRAMES frames is cut into _PARTS fixed
    contiguous halves (_Half); a smaller one is a single part, swept on the
    calling thread with no thread started. Each track entry runs every step
    that is local to a frame column: each part's share of the track's two
    sums, the next h-step, v = w @ h and its share of the template step's
    numerator and denominator. Half 1 is submitted to a one-worker pool, one
    dispatch per track entry, while the calling thread runs half 0 and then
    waits for half 1. The calling thread adds the shares half 0 first and
    takes the stop test; only when the fit goes on does it commit the new h
    and move and renormalize w, so a fit that stops keeps the model its last
    track entry measured. A fit depends on its frame count and the fixed cut
    alone, never on the CPU count or on thread timing, and a repeated fit
    repeats bitwise.

    The result is written back into the float64 w and h, with the peak
    restored in h, and the moved columns are renormalized to unit L1 there.
    Each track entry is the divergence of the float32 model, taken from the
    p/v buffers that the next h-step needs anyway and summed in float32 per
    part; the divergence is scale-invariant, and is_divergence is the
    float64 reference.
    """
    f32 = np.float32
    free = slice(0, n_free_cols)
    peak = float(p.max())
    parts = _PARTS if p.shape[1] >= _SPLIT_FRAMES else 1
    cut = np.linspace(0, p.shape[1], parts + 1).astype(int)
    with np.errstate(all="ignore"):  # as in _Half: the track's isfinite check guards
        p32 = (p / peak).astype(f32)
        w32 = w.astype(f32)
        h32 = h.astype(f32)
        # start at the right overall level
        h32 *= float(p32.mean(dtype=np.float64) / (w32 @ h32).mean(dtype=np.float64))
    halves = [_Half(np.ascontiguousarray(p32[:, a:b]), np.ascontiguousarray(h32[:, a:b]),
                    n_free_cols) for a, b in zip(cut[:-1], cut[1:])]
    del p32, h32

    # the pool starts its worker at the first submit, so a one-part fit starts none
    with ThreadPoolExecutor(max_workers=_PARTS - 1) as pool:

        def step(scale) -> float:
            """One _Half.step on each part; the track entry they measured."""
            rest = [pool.submit(half.step, w32, scale) for half in halves[1:]]
            partials = [halves[0].step(w32, scale)] + [done.result() for done in rest]
            return sum(r for r, _ in partials) - sum(lg for _, lg in partials) - p.size

        track = [step(np.ones((1, n_free_cols), dtype=f32))]  # x * 1 is exact
        for i in range(1, iters + 1):
            for half in halves:
                half.h, half.h_next = half.h_next, half.h
            with np.errstate(all="ignore"):
                w_num = sum(half.w_num for half in halves)
                w_num /= sum(half.w_den for half in halves)
                w32[:, free] *= np.sqrt(w_num, out=w_num)
                # renormalize moved columns; scale shifts into h, w @ h intact
                scale = w32[:, free].sum(axis=0, keepdims=True)
                w32[:, free] /= scale
            d = step(scale)
            if not math.isfinite(d):
                raise FootfallError("factorization diverged", iteration=i)
            track.append(d)
            if track[-2] - d <= _TOL * track[-2]:
                break
    w[:, free] = w32[:, free]
    scale = w[:, free].sum(axis=0, keepdims=True)
    w[:, free] /= scale
    for half, a, b in zip(halves, cut[:-1], cut[1:]):
        h[:, a:b] = half.h
    h[free] *= scale.T
    h *= peak
    return np.array(track)


def _step_free_frames(power: np.ndarray) -> np.ndarray:
    """Boolean mask of frames almost surely free of footstep energy.

    Footsteps are impulsive: they occupy a minority of frames and push the
    frame energy far above the between-step level. Everything outside the
    loud windows, with a guard for impact decay tails, carries only the
    continuous interference; unlike a lowest-energy pick this keeps the
    interference at all its levels, not just its own quiet gaps. power
    comes checked from nmf_separate.
    """
    energy = power.sum(axis=0)
    keep = np.ones(energy.size, dtype=bool)
    loud = energy >= np.quantile(energy, 1.0 - _LOUD_FRAC)
    for k in np.flatnonzero(loud):
        keep[max(0, k - _GUARD): k + _GUARD + 1] = False
    return keep


def voice_templates(power: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Spectral templates of the continuous interference, from quiet frames.

    Fits a plain factorization to the footstep-free frames only; the
    resulting unit-L1 columns can be pinned in nmf_fit so the voice share of
    the model is already accurate and the carving of footstep bins that a
    blind fit commits at low SIR never happens.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p = _floored(power)
    q, n_frames = p.shape
    w = rng.uniform(0.1, 1.0, size=(q, R_VOICE))
    w /= w.sum(axis=0, keepdims=True)
    h = rng.uniform(0.1, 1.0, size=(R_VOICE, n_frames))
    _mu_sweeps(p, w, h, R_VOICE, ITERS)
    return w


def nmf_fit(power: np.ndarray, foot_h: np.ndarray,
            rng: np.random.Generator | None = None,
            voice_w: np.ndarray | None = None,
            iters: int = ITERS) -> tuple[NmfModel, np.ndarray]:
    """Factor a power spectrogram into footstep and voice components.

    Returns the fitted model and the divergence track (starting value plus
    one entry per sweep run: at most iters, fewer once a sweep lowers the
    divergence by no more than a relative _TOL); the track is
    non-increasing. The footstep activations start from foot_h; nmf_separate
    passes _onset_comb's start on the 16 kHz frames it separates every
    capture on. When voice_w is given those templates are pinned and
    only their activations adapt; otherwise the voice share starts random
    and moves freely. iters, a positive integer, caps the sweeps;
    nmf_separate lowers it to QUIET_ITERS for a blind fit over a weak noise
    floor.
    """
    iters = _as_whole(iters, "iters")
    if rng is None:
        rng = np.random.default_rng(0)
    p = _floored(power)
    q, n_frames = p.shape
    rf = R_FOOTSTEP
    if voice_w is not None:
        voice_w = _as_float_array(voice_w, "voice_w", (q, R_VOICE), nonnegative=True)
        worst = float(np.max(np.abs(voice_w.sum(axis=0) - 1.0)))
        if worst > 1e-6:
            raise FootfallError("voice_w columns must have unit L1 norm",
                                argument="voice_w", worst=worst)
    foot_h = _as_float_array(foot_h, "foot_h", (rf, n_frames), nonnegative=True)
    w = np.empty((q, rf + R_VOICE))
    w[:, :rf] = rng.uniform(0.1, 1.0, size=(q, rf))
    w[:, :rf] /= w[:, :rf].sum(axis=0, keepdims=True)
    if voice_w is None:
        w[:, rf:] = rng.uniform(0.1, 1.0, size=(q, R_VOICE))
        w[:, rf:] /= w[:, rf:].sum(axis=0, keepdims=True)
        n_free = rf + R_VOICE
    else:
        w[:, rf:] = voice_w
        n_free = rf
    h = np.empty((rf + R_VOICE, n_frames))
    h[:rf] = foot_h
    h[rf:] = rng.uniform(0.1, 1.0, size=(R_VOICE, n_frames))
    track = _mu_sweeps(p, w, h, n_free, iters)
    return NmfModel(w=w, h=h), track


def _source_masks(model: NmfModel) -> tuple[np.ndarray, np.ndarray]:
    """Complementary Wiener masks for the two sources.

    Each bin is shared in proportion to the modelled powers, so the two
    masks sum to one everywhere and masked stems sum back to the mixture.
    """
    rf = R_FOOTSTEP
    foot, voice = model.w[:, :rf] @ model.h[:rf], model.w[:, rf:] @ model.h[rf:]
    total = np.maximum(foot + voice, 1e-300)
    return foot / total, voice / total


def _stationarity_gap(power: np.ndarray) -> float:
    """Mean over the lowest _GAP_BINS bins of log(mean power) - mean(log power).

    power is a (bins, frames) spectrogram of _WINDOW_LEN-sample frames at
    _RATE. Each bin of a stationary Gaussian floor has exponentially
    distributed power, for which the gap is Euler's gamma (0.58) at any
    level; a voice swings by tens of dB from syllable to pause and raises
    it, however weak.
    """
    low = np.maximum(power[:_GAP_BINS], _POWER_FLOOR)
    return float(np.mean(np.log(low.mean(axis=1)) - np.log(low).mean(axis=1)))


def _weak_noise_floor(power: np.ndarray, quiet: np.ndarray) -> bool:
    """Whether the step-free frames hold only a weak stationary floor.

    Weak: they average at most _WEAK_FLOOR of the mean frame energy.
    Stationary: their _stationarity_gap is at most _STATIONARY_GAP, which
    tells pink noise from a voice at the same level. False when there are
    no step-free frames.
    """
    if not quiet.any():
        return False
    floor = power[:, quiet]
    return bool(floor.mean() <= _WEAK_FLOOR * power.mean()
                and _stationarity_gap(floor) <= _STATIONARY_GAP)


def nmf_separate(mix: Waveform, step_freq: float,
                 rng: np.random.Generator | None = None) -> tuple[Waveform, Waveform]:
    """Split a single-channel mixture into footstep and voice stems.

    step_freq is the accepted pace line in Hz; it sets the comb period of
    the footstep activation prior. The footstep stem is the Wiener-masked
    mixture and the voice stem is the mixture minus the footstep stem, so
    both have exactly the input length and sum to the input. Every capture
    is separated at 16 kHz: the mixture is resampled to 16 kHz (scipy's
    resample_poly, up or down) and the footstep stem resampled back and
    cropped to the input length, so it carries nothing above 8 kHz.

    When the step-free frames carry a clear energy share, voice templates
    learned on them are pinned (four fits); otherwise one blind fit runs.
    That blind fit runs at most QUIET_ITERS sweeps when the step-free frames
    hold a weak stationary floor (_weak_noise_floor), and ITERS otherwise:
    over a voice, however weak, or when there are no step-free frames.
    """
    _check_instance(mix, Waveform, "mix")
    period = _RATE / _HOP / _as_positive(step_freq, "step_freq")
    if not math.isfinite(period):
        raise FootfallError("step_freq too small for a finite comb period", step_freq=step_freq)
    if rng is None:
        rng = np.random.default_rng(0)
    fs = mix.sample_rate
    g = math.gcd(_RATE, fs)
    up, down = _RATE // g, fs // g  # 1 and 1 at 16 kHz: resample_poly copies
    x = Waveform(resample_poly(mix.samples, up, down), _RATE)
    spec, offset = analyze_padded(x, _WINDOW_LEN, _HOP)
    power = spec.magnitudes**2
    peak = float(power.max())
    if not (math.isfinite(peak) and peak > 0.0):
        raise FootfallError("mixture power must be finite and nonzero", peak=peak)
    # Every fit, and the refinement input, starts from one float32 rounding
    # of the power over its peak: the rounding of a later, level-dependent
    # array could flip an entry between mixture levels.
    power = (power / peak).astype(np.float32).astype(np.float64)
    # Above the capture's Nyquist frequency an upsampled capture holds only
    # FFT rounding noise, which would reach the refinement input unfloored.
    power[np.fft.rfftfreq(_WINDOW_LEN, 1 / _RATE) > fs / 2] = 0.0
    quiet = _step_free_frames(power)
    # Footstep activations start confined to the observed impacts in both
    # branches. With real interference present, the step-free frames carry
    # a clear energy share; pin voice templates learned there, then refine
    # the templates once on the first pass's voice stem. Otherwise one blind
    # fit runs.
    if int(quiet.sum()) >= 2 * R_VOICE and power[:, quiet].sum() > 0.02 * power.sum():
        voice_w = voice_templates(power[:, quiet], rng=rng)
        foot_h = _onset_comb(power, period, rng)
        model, _ = nmf_fit(power, foot_h, rng=rng, voice_w=voice_w)
        _, mask_voice = _source_masks(model)
        voice_w = voice_templates(mask_voice**2 * power, rng=rng)
        model, _ = nmf_fit(power, foot_h, rng=rng, voice_w=voice_w)
    else:
        iters = QUIET_ITERS if _weak_noise_floor(power, quiet) else ITERS
        model, _ = nmf_fit(power, _onset_comb(power, period, rng), rng=rng, iters=iters)
    mask_foot, _ = _source_masks(model)
    spec.values *= mask_foot
    foot = synthesize_padded(spec, offset, x.samples.size).samples
    # ceil(ceil(n up / down) down / up) >= n, so the crop never pads
    foot = resample_poly(foot, down, up)[:mix.samples.size]
    return Waveform(foot, fs), Waveform(mix.samples - foot, fs)
