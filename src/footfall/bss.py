"""Separation quality metrics from least-squares projections.

An estimate is decomposed against the clean reference signals into a target
part, interference leakage, noise leakage, and artifacts:

    s_tgt   projection of the estimate onto the clean target
    e_itf   extra part explained by the interferers
    e_nse   extra part explained by the noise reference
    e_art   remainder

SIR compares s_tgt to e_itf; SDR compares s_tgt to everything that is not
target. Both are scale invariant and capped at +-100 dB. sir and sdr are
the two scores; decompose returns the parts they are read from.
"""

from __future__ import annotations

import numpy as np

from .errors import FootfallError
from .types import _as_float_array

DB_CAP = 100.0


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


def _samples(x, name: str) -> np.ndarray:
    """One signal, a Waveform or a finite 1-d array; errors name the argument."""
    return _as_float_array(getattr(x, "samples", x), name, (None,))


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
