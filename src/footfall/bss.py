"""Separation quality metrics from least-squares projections.

An estimate is decomposed against the clean reference signals into a target
part, interference leakage, noise leakage, and artifacts:

    s_tgt   projection of the estimate onto the clean target
    e_itf   extra part explained by the interferers
    e_nse   extra part explained by the noise reference
    e_art   remainder

SIR compares s_tgt to e_itf; SDR compares s_tgt to everything that is not
target. Both are scale invariant and capped at +-100 dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FootfallError
from .types import Waveform

DB_CAP = 100.0


@dataclass
class SeparationScore:
    """Separation quality of one stem against its clean references."""

    sir: float
    sdr: float

    def __post_init__(self):
        self.sir = float(self.sir)
        self.sdr = float(self.sdr)
        if not (np.isfinite(self.sir) and np.isfinite(self.sdr)):
            raise FootfallError("separation score must be finite", sir=self.sir, sdr=self.sdr)
        # distortion includes interference, so sdr cannot sit far above sir
        if self.sdr > self.sir + 60.0:
            raise FootfallError("sdr exceeds sir by more than 60 dB", sir=self.sir, sdr=self.sdr)

    def to_dict(self) -> dict:
        return {"sir_db": self.sir, "sdr_db": self.sdr}


def _samples(x, name: str) -> np.ndarray:
    """One signal as a finite 1-d float64 array; errors name the argument."""
    x = x.samples if isinstance(x, Waveform) else np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise FootfallError(f"{name} must be 1-d", argument=name, shape=tuple(x.shape))
    if not np.all(np.isfinite(x)):
        raise FootfallError(f"{name} must be finite", argument=name)
    return x


def _project(est: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Least-squares projection of est onto the span of the basis signals."""
    if not basis:
        return np.zeros_like(est)
    a = np.stack(basis, axis=1)
    coef, *_ = np.linalg.lstsq(a, est, rcond=None)
    return a @ coef


def _ratio_db(num: float, den: float) -> float:
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def decompose(estimate, target, interferers=(), noise=None) -> dict[str, np.ndarray]:
    """The four parts of the estimate; every input is a finite 1-d signal of one length."""
    est = _samples(estimate, "estimate")
    tgt = _samples(target, "target")
    if est.shape != tgt.shape:
        raise FootfallError("estimate and target lengths differ", estimate=est.size, target=tgt.size)
    if not np.any(tgt):
        raise FootfallError("clean target has zero energy")
    itf = [_samples(s, "interferers") for s in interferers]
    nse = [] if noise is None else [_samples(noise, "noise")]
    for name, refs in (("interferers", itf), ("noise", nse)):
        if any(x.shape != est.shape for x in refs):
            raise FootfallError(f"{name} and estimate lengths differ", argument=name,
                                estimate=est.size)

    s_tgt = _project(est, [tgt])
    p_ti = _project(est, [tgt] + itf)
    p_tin = _project(est, [tgt] + itf + nse)
    return {
        "s_tgt": s_tgt,
        "e_itf": p_ti - s_tgt,
        "e_nse": p_tin - p_ti,
        "e_art": est - p_tin,
    }


def sir(estimate, target, interferers, noise=None) -> float:
    """Signal-to-interference ratio in dB."""
    parts = decompose(estimate, target, interferers, noise)
    return _ratio_db(float(np.sum(parts["s_tgt"] ** 2)), float(np.sum(parts["e_itf"] ** 2)))


def sdr(estimate, target, interferers=(), noise=None) -> float:
    """Signal-to-distortion ratio in dB (everything non-target is distortion)."""
    parts = decompose(estimate, target, interferers, noise)
    err = parts["e_itf"] + parts["e_nse"] + parts["e_art"]
    return _ratio_db(float(np.sum(parts["s_tgt"] ** 2)), float(np.sum(err**2)))


def score_separation(estimate, target, interferers, noise=None) -> SeparationScore:
    """SIR and SDR of one separated stem, bundled for reporting."""
    return SeparationScore(
        sir=sir(estimate, target, interferers, noise),
        sdr=sdr(estimate, target, interferers, noise),
    )


def snr_db(signal, noise) -> float:
    """Plain energy ratio in dB between two stems."""
    s = _samples(signal, "signal")
    n = _samples(noise, "noise")
    return _ratio_db(float(np.sum(s * s)), float(np.sum(n * n)))
