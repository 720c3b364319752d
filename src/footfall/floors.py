"""Floor plate model: bending-wave dispersion and arrival-time geometry.

A footstep reaches a sensor twice: once through the floor as a bending wave
whose speed grows with the square root of frequency, and once through the
air at a fixed speed. The lead of the structural arrival over the airborne
one is what monaural ranging inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FootfallError

AIR_SPEED = 340.0  # m/s


@dataclass(frozen=True)
class FloorMaterial:
    """Effective plate parameters of a floor.

    The constants are effective values calibrated so that kilohertz bending
    waves travel in the few-km/s band measured on real slabs; they are not
    handbook material constants.
    """

    name: str
    young_modulus: float  # Pa
    density: float  # kg/m^3
    thickness: float  # m
    poisson_ratio: float
    air_speed: float = AIR_SPEED

    def __post_init__(self):
        for constant in ("young_modulus", "density", "thickness", "air_speed"):
            value = getattr(self, constant)
            if not (math.isfinite(value) and value > 0):
                raise FootfallError("material constants must be finite and positive",
                                    material=self.name, constant=constant, value=value)
        if not 0.0 <= self.poisson_ratio < 1.0:
            raise FootfallError("poisson_ratio must lie in [0, 1)", value=self.poisson_ratio)


# calibrated so dispersion_speed(..., 1000.0) sits in the 2000-3000 m/s band
CONCRETE_SLAB = FloorMaterial(
    name="concrete-slab",
    young_modulus=5.6e12,
    density=2400.0,
    thickness=0.15,
    poisson_ratio=0.5,
)

WOOD_JOIST = FloorMaterial(
    name="wood-joist",
    young_modulus=1.2e12,
    density=600.0,
    thickness=0.05,
    poisson_ratio=0.4,
)


def dispersion_speed(material: FloorMaterial, freq_hz):
    """Bending-wave speed c_f = (E h f^2 / (12 rho (1 - nu^2)))^(1/4), m/s.

    Scales as sqrt(f); accepts scalars or arrays, zero frequency maps to zero.
    """
    f = np.asarray(freq_hz, dtype=np.float64)
    if not np.all(np.isfinite(f) & (f >= 0)):
        details = {"freq_hz": float(f)} if f.ndim == 0 else {}
        raise FootfallError("frequency must be finite and nonnegative", **details)
    stiffness = material.young_modulus * material.thickness
    denom = 12.0 * material.density * (1.0 - material.poisson_ratio**2)
    c = (stiffness * f * f / denom) ** 0.25
    return float(c) if np.isscalar(freq_hz) else c


def arrival_gap(range_m: float, material: FloorMaterial, f_ref_hz: float) -> float:
    """Structural lead time over the airborne arrival, in seconds.

    gap = range * (1/c_air - 1/c_f(f_ref)); positive whenever the bending
    wave at f_ref outruns sound in air.
    """
    if not (math.isfinite(range_m) and range_m > 0):
        raise FootfallError("range must be finite and positive", range_m=range_m)
    if not (math.isfinite(f_ref_hz) and f_ref_hz > 0):
        raise FootfallError("f_ref must be finite and positive", f_ref_hz=f_ref_hz)
    c_f = dispersion_speed(material, f_ref_hz)
    if not c_f > 0:  # f_ref so small that f_ref**2 underflows
        raise FootfallError("dispersion speed at f_ref must be positive", f_ref_hz=f_ref_hz)
    return range_m * (1.0 / material.air_speed - 1.0 / c_f)


def material_for_speed(
    speed: float, f_ref_hz: float = 1000.0, base: FloorMaterial = CONCRETE_SLAB
) -> FloorMaterial:
    """Variant of a material whose bending-wave speed at f_ref is exactly `speed`."""
    if not (math.isfinite(speed) and speed > 0):
        raise FootfallError("speed must be finite and positive", speed=speed)
    if not (math.isfinite(f_ref_hz) and f_ref_hz > 0):
        raise FootfallError("f_ref must be finite and positive", f_ref_hz=f_ref_hz)
    denom = 12.0 * base.density * (1.0 - base.poisson_ratio**2)
    young = speed**4 * denom / (base.thickness * f_ref_hz**2)
    return replace(base, name=f"{base.name}-c{int(speed)}", young_modulus=young)
