import math
from dataclasses import replace

import numpy as np
import pytest

from footfall import FootfallError
from footfall.floors import CONCRETE_SLAB, WOOD_JOIST, FloorMaterial, arrival_gap, dispersion_speed


def _plate_speed(young_modulus, density, thickness, poisson_ratio, f):
    """Bending-wave speed of a thin plate, (E h f^2 / (12 rho (1 - nu^2)))^(1/4)."""
    return (young_modulus * thickness * f * f
            / (12.0 * density * (1.0 - poisson_ratio**2))) ** 0.25


def test_dispersion_formula_direct():
    # the shipped speeds are this calibration's effective plate constants, to the bit
    for m, constants in ((CONCRETE_SLAB, (5.6e12, 2400.0, 0.15, 0.5)),
                         (WOOD_JOIST, (1.2e12, 600.0, 0.05, 0.4))):
        assert m.speed_1hz == _plate_speed(*constants, 1.0)
        assert dispersion_speed(m, 1000.0) == pytest.approx(_plate_speed(*constants, 1000.0),
                                                            rel=1e-12)


def test_default_slab_speed_in_measured_band():
    assert 2000.0 <= dispersion_speed(CONCRETE_SLAB, 1000.0) <= 3000.0


@pytest.mark.parametrize("f", [125.0, 430.0, 1000.0, 2750.0])
@pytest.mark.parametrize("material", [CONCRETE_SLAB, WOOD_JOIST])
def test_sqrt_frequency_scaling(material, f):
    # quadrupling frequency doubles the speed
    c1 = dispersion_speed(material, f)
    c4 = dispersion_speed(material, 4.0 * f)
    assert abs(c4 / c1 - 2.0) < 1e-9


def test_dispersion_zero_frequency():
    assert dispersion_speed(CONCRETE_SLAB, 0.0) == 0.0


def test_arrival_gap_two_meters_is_1000_samples_at_192k():
    # with the bending wave at 3000 m/s: 2 * (1/340 - 1/3000) s of lead,
    # about 5.22 ms, an even thousand samples at 192 kHz
    material = FloorMaterial("c3000", 3000.0 / math.sqrt(1000.0))
    assert dispersion_speed(material, 1000.0) == pytest.approx(3000.0, rel=1e-12)
    gap = arrival_gap(2.0, material, 1000.0)
    assert gap == pytest.approx(2.0 * (1.0 / 340.0 - 1.0 / 3000.0), rel=1e-12)
    assert gap == pytest.approx(5.2157e-3, rel=1e-4)
    assert abs(gap * 192000.0 - 1000.0) <= 2.0


def test_arrival_gap_scales_linearly_with_range():
    g1 = arrival_gap(1.0, CONCRETE_SLAB, 1000.0)
    g3 = arrival_gap(3.0, CONCRETE_SLAB, 1000.0)
    assert g3 == pytest.approx(3.0 * g1, rel=1e-12)


def test_arrival_gap_rejects_bad_range():
    with pytest.raises(FootfallError):
        arrival_gap(0.0, CONCRETE_SLAB, 1000.0)


def test_material_constants_validated():
    with pytest.raises(FootfallError):
        FloorMaterial(name="bad", speed_1hz=-1.0)


@pytest.mark.parametrize("call, key, value", [
    (lambda: replace(CONCRETE_SLAB, air_speed=0.0), "air_speed", 0.0),
    (lambda: replace(CONCRETE_SLAB, speed_1hz=0.0), "speed_1hz", 0.0),
    (lambda: replace(CONCRETE_SLAB, speed_1hz=-5.0), "speed_1hz", -5.0),
    (lambda: replace(CONCRETE_SLAB, speed_1hz=math.inf), "speed_1hz", math.inf),
    (lambda: replace(WOOD_JOIST, speed_1hz=math.nan), "speed_1hz", math.nan),
    (lambda: replace(WOOD_JOIST, air_speed=math.nan), "air_speed", math.nan),
    (lambda: arrival_gap(2.0, CONCRETE_SLAB, 0.0), "f_ref_hz", 0.0),
    (lambda: arrival_gap(math.nan, CONCRETE_SLAB, 1000.0), "range_m", math.nan),
    (lambda: arrival_gap(2.0, CONCRETE_SLAB, math.nan), "f_ref_hz", math.nan),
    (lambda: replace(WOOD_JOIST, speed_1hz="600"), "speed_1hz", repr("600")),
], ids=["zero-air-speed", "zero-speed", "negative-speed", "infinite-speed", "nan-speed",
        "nan-air-speed", "zero-f-ref", "nan-range", "nan-f-ref", "str-speed"])
def test_bad_floor_values_raise_with_the_value(call, key, value):
    with pytest.raises(FootfallError) as err:
        call()
    assert repr(err.value.details[key]) == repr(value)  # nan too; a str shows as its repr


@pytest.mark.parametrize("freq_hz", [math.nan, math.inf, np.array([100.0, math.nan])],
                         ids=["nan", "inf", "array-with-nan"])
def test_dispersion_speed_rejects_a_non_finite_frequency(freq_hz):
    with pytest.raises(FootfallError) as err:
        dispersion_speed(CONCRETE_SLAB, freq_hz)
    if np.isscalar(freq_hz):
        assert np.array_equal(err.value.details["freq_hz"], freq_hz, equal_nan=True)
        with pytest.raises(FootfallError):  # not the lead of an infinitely fast wave
            arrival_gap(2.0, CONCRETE_SLAB, freq_hz)
