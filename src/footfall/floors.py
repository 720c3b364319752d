"""Floor model: bending-wave dispersion and arrival-time geometry.

A footstep reaches a sensor twice: once through the floor as a bending wave
whose speed grows with the square root of frequency, and once through the
air at a fixed speed. The lead of the structural arrival over the airborne
one is what monaural ranging inverts. A floor is its bending speed at 1 Hz
and the speed of sound above it; nothing else of it reaches a render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import _as_float_array, _as_positive, _check_instance

AIR_SPEED = 340.0  # m/s


@dataclass(frozen=True)
class FloorMaterial:
    """A floor's bending-wave speed c_f = speed_1hz * sqrt(f), with speed_1hz
    in m/s at 1 Hz, and the speed of sound in air above it, in m/s."""

    name: str
    speed_1hz: float
    air_speed: float = AIR_SPEED

    def __post_init__(self):
        for speed in ("speed_1hz", "air_speed"):
            _as_positive(getattr(self, speed), speed)


# effective calibrations: at 1 kHz the slab runs at 2497 m/s, inside the
# 2000-3000 m/s band measured on real slabs, and the joist floor at 1775 m/s
CONCRETE_SLAB = FloorMaterial(name="concrete-slab", speed_1hz=78.96895367562645)

WOOD_JOIST = FloorMaterial(name="wood-joist", speed_1hz=56.12222324305729)


def dispersion_speed(material: FloorMaterial, freq_hz):
    """Bending-wave speed c_f = speed_1hz * sqrt(f), m/s.

    Accepts scalars or arrays; zero frequency maps to zero.
    """
    _check_instance(material, FloorMaterial, "material")
    scalar = np.isscalar(freq_hz)
    f = (_as_positive(freq_hz, "freq_hz", zero_ok=True) if scalar
         else _as_float_array(freq_hz, "freq_hz", None, nonnegative=True))
    c = material.speed_1hz * np.sqrt(f)
    return float(c) if scalar else c


def arrival_gap(range_m: float, material: FloorMaterial, f_ref_hz: float) -> float:
    """Structural lead time over the airborne arrival, in seconds.

    gap = range * (1/c_air - 1/c_f(f_ref)); positive whenever the bending
    wave at f_ref outruns sound in air.
    """
    range_m = _as_positive(range_m, "range_m")
    c_f = dispersion_speed(material, _as_positive(f_ref_hz, "f_ref_hz"))
    return range_m * (1.0 / material.air_speed - 1.0 / c_f)
