import math
from dataclasses import replace

import numpy as np
import pytest

from footfall import FootfallError
from footfall.floors import (
    CONCRETE_SLAB,
    WOOD_JOIST,
    arrival_gap,
    dispersion_speed,
    material_for_speed,
)


def test_dispersion_formula_direct():
    m = CONCRETE_SLAB
    f = 1000.0
    expected = (m.young_modulus * m.thickness * f * f / (12.0 * m.density * (1.0 - m.poisson_ratio**2))) ** 0.25
    assert dispersion_speed(m, f) == pytest.approx(expected, rel=1e-12)


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
    material = material_for_speed(3000.0, f_ref_hz=1000.0)
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
        CONCRETE_SLAB.__class__(
            name="bad", young_modulus=-1.0, density=1.0, thickness=1.0, poisson_ratio=0.3
        )


@pytest.mark.parametrize("call, key, value", [
    (lambda: replace(CONCRETE_SLAB, air_speed=0.0), "value", 0.0),
    (lambda: replace(CONCRETE_SLAB, young_modulus=math.inf), "value", math.inf),
    (lambda: replace(WOOD_JOIST, density=math.nan), "value", math.nan),
    (lambda: material_for_speed(-5.0), "speed", -5.0),
    (lambda: material_for_speed(math.nan), "speed", math.nan),
    (lambda: material_for_speed(3000.0, f_ref_hz=0.0), "f_ref_hz", 0.0),
    (lambda: arrival_gap(math.nan, CONCRETE_SLAB, 1000.0), "range_m", math.nan),
    (lambda: arrival_gap(2.0, CONCRETE_SLAB, math.nan), "f_ref_hz", math.nan),
], ids=["zero-air-speed", "infinite-modulus", "nan-density", "negative-speed",
        "nan-speed", "zero-f-ref", "nan-range", "nan-f-ref"])
def test_bad_floor_values_raise_with_the_value(call, key, value):
    with pytest.raises(FootfallError) as err:
        call()
    assert np.array_equal(err.value.details[key], value, equal_nan=True)


@pytest.mark.parametrize("freq_hz", [math.nan, math.inf, np.array([100.0, math.nan])],
                         ids=["nan", "inf", "array-with-nan"])
def test_dispersion_speed_rejects_a_non_finite_frequency(freq_hz):
    with pytest.raises(FootfallError) as err:
        dispersion_speed(CONCRETE_SLAB, freq_hz)
    if np.isscalar(freq_hz):
        assert np.array_equal(err.value.details["freq_hz"], freq_hz, equal_nan=True)
        with pytest.raises(FootfallError):  # not the lead of an infinitely fast wave
            arrival_gap(2.0, CONCRETE_SLAB, freq_hz)
