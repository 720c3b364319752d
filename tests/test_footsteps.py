import numpy as np
import pytest

from footfall import FootfallError
from footfall.dsp import envelope_peak_time, narrowband_envelope
from footfall.floors import CONCRETE_SLAB, arrival_gap
from footfall.footsteps import (
    STRUCTURE_GAIN,
    FootstepPersona,
    footstep_parts,
    place_footstep,
    synth_footstep,
)


def _persona(force=1.0):
    return FootstepPersona(
        name="t0",
        impact_force_scale=force,
        impact_duration_s=0.002,
        modes=(
            (70.0, 30.0, 1.0),
            (240.0, 60.0, 0.8),
            (900.0, 120.0, 0.7),
            (2200.0, 200.0, 0.5),
            (3900.0, 320.0, 0.4),
        ),
    )


def _onset(x, rel=1e-9):
    idx = np.nonzero(np.abs(x) > rel * np.max(np.abs(x)))[0]
    assert idx.size > 0
    return int(idx[0])


def _band_arrival(x, fs, f0, bw=400.0):
    """Arrival time of the f0 packet: envelope peak of the f0 band."""
    return envelope_peak_time(narrowband_envelope(x, fs, f0, bw), fs)


def _measured_gap(persona, r, fs):
    """Air arrival minus structure arrival at the top mode's band.

    Each propagated path is timed against its own source template, so the
    packet shape drops out and only the propagation delays remain.
    """
    f0 = persona.max_mode_hz
    parts = footstep_parts(persona, fs)
    air = synth_footstep(persona, CONCRETE_SLAB, r, fs, structure=False)
    struct = synth_footstep(persona, CONCRETE_SLAB, r, fs, air=False)
    air_delay = _band_arrival(air.samples, fs, f0) - _band_arrival(parts.air_template, fs, f0)
    struct_delay = _band_arrival(struct.samples, fs, f0) - _band_arrival(
        parts.structure_source, fs, f0
    )
    return air_delay - struct_delay


def test_zero_force_is_silent():
    w = synth_footstep(_persona(force=0.0), CONCRETE_SLAB, 2.0, 48000)
    assert np.all(w.samples == 0.0)


def test_structure_onset_leads_air_by_arrival_gap():
    # the structural path leads the airborne one by the closed-form gap at
    # the reference frequency, within 2 samples at 192 kHz
    fs = 192000
    persona = _persona()
    gap = _measured_gap(persona, 2.0, fs)
    expected = arrival_gap(2.0, CONCRETE_SLAB, persona.max_mode_hz)
    assert abs(gap - expected) * fs <= 2.0


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_structure_lead_positive_and_range_proportional(r):
    fs = 192000
    persona = _persona()
    gap = _measured_gap(persona, r, fs)
    expected = arrival_gap(r, CONCRETE_SLAB, persona.max_mode_hz)
    assert gap > 0
    assert gap == pytest.approx(expected, abs=2.0 / fs)


def test_air_waveform_shape_invariant_to_range():
    fs = 48000
    a = synth_footstep(_persona(), CONCRETE_SLAB, 1.0, fs, structure=False).samples
    b = synth_footstep(_persona(), CONCRETE_SLAB, 2.5, fs, structure=False).samples
    a = a[_onset(a) :]
    b = b[_onset(b) :]
    n = min(a.size, b.size)
    corr = np.dot(a[:n], b[:n]) / (np.linalg.norm(a[:n]) * np.linalg.norm(b[:n]))
    assert corr >= 0.99


def test_structure_waveform_shape_changes_with_range():
    fs = 48000
    a = synth_footstep(_persona(), CONCRETE_SLAB, 1.0, fs, air=False).samples
    b = synth_footstep(_persona(), CONCRETE_SLAB, 3.0, fs, air=False).samples
    a = a[_onset(a) :]
    b = b[_onset(b) :]
    n = min(a.size, b.size)
    corr = np.dot(a[:n], b[:n]) / (np.linalg.norm(a[:n]) * np.linalg.norm(b[:n]))
    assert corr < 0.99


def test_dispersive_filter_is_all_pass():
    # unit-magnitude phase filter: output energy equals input energy exactly
    fs = 48000
    parts = footstep_parts(_persona(), fs)
    src = parts.structure_source
    for r in (0.3, 1.0, 4.0):
        y = place_footstep(parts, CONCRETE_SLAB, r, air=False) * np.sqrt(r) / STRUCTURE_GAIN
        assert np.sum(y * y) == pytest.approx(np.sum(src * src), rel=1e-9)


def test_dispersive_path_is_energy_preserving():
    # structural energy times range is constant: dispersion is an all-pass,
    # only the 1/sqrt(range) geometry scales the energy
    fs = 48000
    e = {}
    for r in (0.8, 2.4):
        x = synth_footstep(_persona(), CONCRETE_SLAB, r, fs, air=False).samples
        e[r] = np.sum(x * x) * r
    assert abs(e[0.8] / e[2.4] - 1.0) < 0.01


def test_air_attenuates_inverse_range():
    fs = 48000
    e1 = np.sum(synth_footstep(_persona(), CONCRETE_SLAB, 1.0, fs, structure=False).samples ** 2)
    e2 = np.sum(synth_footstep(_persona(), CONCRETE_SLAB, 2.0, fs, structure=False).samples ** 2)
    assert e1 / e2 == pytest.approx(4.0, rel=0.01)


def test_mode_above_nyquist_rejected():
    persona = FootstepPersona(
        name="hi",
        impact_force_scale=1.0,
        impact_duration_s=0.002,
        modes=((9000.0, 100.0, 1.0),),
    )
    with pytest.raises(FootfallError):
        synth_footstep(persona, CONCRETE_SLAB, 1.0, 16000)


_NAN = float("nan")


@pytest.mark.parametrize("field, value, detail", [
    ("modes", ((70.0, 30.0),), "mode"),
    ("modes", (70.0,), "mode"),
    ("modes", ((70.0, _NAN, 1.0),), "mode"),
    ("modes", ((70.0, 30.0, float("inf")),), "mode"),
    ("impact_force_scale", _NAN, "impact_force_scale"),
    ("step_frequency_mean", 0.0, "step_frequency_mean"),
    ("step_frequency_mean", _NAN, "step_frequency_mean"),
    ("step_frequency_var", -0.01, "step_frequency_var"),
    ("step_frequency_var", float("inf"), "step_frequency_var"),
    ("speed_mean", -0.8, "speed_mean"),
    ("speed_mean", _NAN, "speed_mean"),
    ("impact_duration_s", "0.002", "impact_duration_s"),
    ("modes", (("70", 30.0, 1.0),), "mode"),
], ids=["pair-mode", "bare-number-mode", "nan-damping", "inf-amplitude", "nan-force",
        "zero-pace", "nan-pace", "negative-pace-var", "inf-pace-var", "negative-speed",
        "nan-speed", "str-duration", "str-mode"])
def test_persona_rejects_a_malformed_or_non_finite_parameter(field, value, detail):
    fields = dict(name="p", impact_force_scale=1.0, impact_duration_s=0.002,
                  modes=((70.0, 30.0, 1.0),))
    with pytest.raises(FootfallError) as err:
        FootstepPersona(**{**fields, field: value})
    assert detail in err.value.details
    FootstepPersona(**fields, step_frequency_var=0.0)  # a fixed pace is fine


def test_range_bounds_rejected():
    with pytest.raises(FootfallError):
        synth_footstep(_persona(), CONCRETE_SLAB, 0.0, 16000)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_non_finite_range_rejected(r):
    parts = footstep_parts(_persona(), 16000)
    with pytest.raises(FootfallError) as err:
        place_footstep(parts, CONCRETE_SLAB, r)
    assert "range_m" in err.value.details


@pytest.mark.parametrize("make, key", [
    (lambda: footstep_parts(_persona(), "16000"), "sample_rate"),
    (lambda: synth_footstep(_persona(), CONCRETE_SLAB, 1.0, 16000.5), "sample_rate"),
    (lambda: place_footstep(footstep_parts(_persona(), 16000), CONCRETE_SLAB,
                            1.0, offset=2.5), "offset"),
], ids=["str-rate", "fractional-rate", "fractional-offset"])
def test_bad_rate_signal_or_offset_raises_by_name(make, key):
    with pytest.raises(FootfallError) as err:
        make()
    assert key in err.value.details


def test_negative_offset_rejected():
    parts = footstep_parts(_persona(), 16000)
    for out in (None, np.zeros(16000)):
        with pytest.raises(FootfallError) as err:
            place_footstep(parts, CONCRETE_SLAB, 1.0, out=out, offset=-1)
        assert err.value.details["offset"] == -1


@pytest.mark.parametrize("out", [[0.0] * 16000, np.zeros((2, 16000)),
                                 np.zeros(16000, np.float32), np.broadcast_to(0.0, 16000)],
                         ids=["list", "2-d", "float32", "read-only"])
def test_place_footstep_out_must_be_a_writable_1d_float64_array(out):
    parts = footstep_parts(_persona(), 16000)
    with pytest.raises(FootfallError) as err:
        place_footstep(parts, CONCRETE_SLAB, 1.0, out=out)
    assert err.value.details["argument"] == "out"


def test_shared_parts_place_like_fresh_parts():
    # one parts object serves every microphone of a step; its kept spectrum
    # must give the same samples as fresh parts, across FFT-length changes
    fs = 48000
    shared = footstep_parts(_persona(), fs)
    for r in (1.0, 1.001, 4.0, 1.0):
        fresh = footstep_parts(_persona(), fs)
        assert np.array_equal(place_footstep(shared, CONCRETE_SLAB, r),
                              place_footstep(fresh, CONCRETE_SLAB, r))


def test_synthesis_deterministic():
    a = synth_footstep(_persona(), CONCRETE_SLAB, 1.5, 48000).samples
    b = synth_footstep(_persona(), CONCRETE_SLAB, 1.5, 48000).samples
    assert np.array_equal(a, b)


def test_perturbed_consumes_fixed_draws():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    p1 = _persona().perturbed(rng1)
    p2 = _persona().perturbed(rng2)
    assert p1 == p2


def test_place_into_shared_buffer():
    fs = 48000
    parts = footstep_parts(_persona(), fs)
    buf = np.zeros(fs * 2)
    out = place_footstep(parts, CONCRETE_SLAB, 1.0, out=buf, offset=fs)
    assert out is buf
    assert np.all(buf[: fs - 1] == 0.0)
    assert np.any(buf[fs:] != 0.0)
