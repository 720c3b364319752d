import numpy as np
import pytest

from footfall.dsp import stft
from footfall.errors import FootfallError
from footfall.floors import CONCRETE_SLAB
from footfall.footsteps import FootstepPersona
from footfall.interferers import babble
from footfall.rhythm import Asacc, asacc, rhythm_present
from footfall.scenes import AirSource, MicArray, Scene, Trajectory, Walker, render_scene
from footfall.types import Spectrogram

FS = 16000


def _persona(pace=1.0, speed=0.8):
    return FootstepPersona(
        name="ada",
        impact_force_scale=1.0,
        impact_duration_s=0.002,
        modes=((70.0, 30.0, 1.0), (240.0, 60.0, 0.8), (900.0, 120.0, 0.6)),
        step_frequency_mean=pace,
        step_frequency_var=1e-4,
        speed_mean=speed,
    )


def _walk_scene(pace=1.0, speed=0.8, seed=0, sir_db=None, duration=14.0):
    persona = _persona(pace=pace, speed=speed)
    walker = Walker(persona, Trajectory(np.array([0.0, duration]),
                                        np.array([[2.0, -4.0], [2.0, 5.0]])))
    voices = ()
    if sir_db is not None:
        voices = (AirSource(babble(duration, FS, np.random.default_rng(seed + 1000)),
                            [4.0, 1.0]),)
    return Scene(floor=CONCRETE_SLAB, array=MicArray(np.array([[0.0, 0.0]])),
                 walkers=(walker,), voices=voices, target_sir_db=sir_db,
                 duration_s=duration, sample_rate=FS, seed=seed)


def _spectrogram(scene):
    out, _ = render_scene(scene)
    return stft(out.channel(0), window_len=512, hop=256)


def test_asacc_matches_hand_computation():
    V = Spectrogram(np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0],
                              [2.0, 0.0, 1.0, 0.0]]).astype(complex),
                    window_len=4, hop=1, sample_rate=8)
    got = asacc(V).b
    # per-lag means: [37/12, 20/9, 7/3, 4/3], then normalized by lag zero
    assert np.allclose(got, [1.0, 80.0 / 111.0, 28.0 / 37.0, 16.0 / 37.0], atol=1e-12)


def test_asacc_is_scale_invariant_with_unit_head():
    rng = np.random.default_rng(3)
    mags = np.abs(rng.standard_normal((5, 100)))
    V = Spectrogram(mags.astype(complex), window_len=8, hop=4, sample_rate=64)
    V3 = Spectrogram(3.0 * mags.astype(complex), window_len=8, hop=4, sample_rate=64)
    a, a3 = asacc(V), asacc(V3)
    assert a.b[0] == 1.0
    assert np.allclose(a.b, a3.b, atol=1e-9)


def test_asacc_of_periodic_train_peaks_at_period_multiples():
    mags = np.zeros((3, 500))
    mags[:, ::50] = 1.0  # one impulse per second at 50 frames/s
    V = Spectrogram(mags.astype(complex), window_len=4, hop=1, sample_rate=50)
    b = asacc(V).b
    assert b[50] == pytest.approx(1.0)
    assert b[100] == pytest.approx(1.0)
    assert b[25] == 0.0


def test_asacc_of_babble_has_no_sharp_lag_peak():
    clip = babble(10.0, FS, np.random.default_rng(7))
    b = asacc(stft(clip, window_len=256, hop=128)).b
    for j in range(20, b.size - 20):
        local = np.mean(b[j - 20: j + 21])
        assert b[j] < 1.5 * local


def _direct_asacc(V):
    """asacc by its definition, one lag at a time: the reference for the FFT."""
    rows = V[:3]
    P = rows.shape[1]
    b = np.array([np.mean(rows[:, : P - j] * rows[:, j:]) for j in range(P)])
    return b / b[0]


@pytest.mark.parametrize("source", ["walk-in-babble", "random-1878-frames"])
def test_asacc_matches_the_direct_sum(source):
    if source == "walk-in-babble":
        V = _spectrogram(_walk_scene(pace=1.5, sir_db=0.0))
    else:  # as many frames as 10 s at 48 kHz and hop 256
        mags = np.abs(np.random.default_rng(8).standard_normal((5, 1878)))
        V = Spectrogram(mags.astype(complex), window_len=8, hop=4, sample_rate=48000)
    got = asacc(V).b
    assert got[0] == 1.0
    assert np.max(np.abs(got - _direct_asacc(V.magnitudes))) <= 1e-12


def test_asacc_rejects_tiny_or_silent_input():
    with pytest.raises(FootfallError):
        asacc(Spectrogram(np.ones((3, 1), complex), window_len=4, hop=1, sample_rate=8))
    with pytest.raises(FootfallError):
        asacc(Spectrogram(np.zeros((3, 50), complex), window_len=4, hop=1, sample_rate=8))


def test_walk_rhythm_found_through_equal_level_babble():
    spec = _spectrogram(_walk_scene(pace=1.0, seed=2, sir_db=0.0))
    verdict = rhythm_present(asacc(spec), spec.frame_rate)
    assert verdict.accept
    assert abs(verdict.frequency_hz - 1.0) <= 0.1


def test_pure_babble_is_rejected():
    clip = babble(14.0, FS, np.random.default_rng(12))
    spec = stft(clip, window_len=512, hop=256)
    verdict = rhythm_present(asacc(spec), spec.frame_rate)
    assert not verdict.accept


def test_cadence_outside_pace_band_rejects_with_reason():
    spec = _spectrogram(_walk_scene(pace=2.5, speed=1.0, seed=4))
    verdict = rhythm_present(asacc(spec), spec.frame_rate)
    assert not verdict.accept
    assert verdict.reason == "outside pace band"
    assert verdict.frequency_hz > 2.0


def test_decision_survives_sub_period_circular_shift():
    spec = _spectrogram(_walk_scene(pace=1.0, seed=5))
    rolled = Spectrogram(np.roll(spec.values, 20, axis=1), spec.window_len,
                         spec.hop, spec.sample_rate)
    a = rhythm_present(asacc(spec), spec.frame_rate)
    b = rhythm_present(asacc(rolled), spec.frame_rate)
    assert a.accept and b.accept
    assert abs(a.frequency_hz - b.frequency_hz) <= 0.1


def test_short_lag_sequence_is_an_error():
    b = Asacc(np.concatenate([[1.0], 0.5 * np.ones(30)]))
    with pytest.raises(FootfallError):
        rhythm_present(b, 50.0)


def test_lone_spectral_line_rejects_without_its_octave():
    # a single in-band line with no harmonic is not a footstep comb
    fr = 50.0
    lags = np.arange(600) / fr
    vec = 0.2 * np.cos(2 * np.pi * 1.2 * lags)
    vec += 0.001 * np.sin(2 * np.pi * 7.3 * lags)  # keep the floor finite
    vec[0] = 1.0
    verdict = rhythm_present(Asacc(vec), fr)
    assert not verdict.accept
    assert verdict.reason == "no rhythmic peak"


def test_impulse_train_comb_is_accepted_at_its_rate():
    mags = np.zeros((3, 700))
    mags[:, ::50] = 1.0  # 1 Hz train at 50 frames/s
    V = Spectrogram(mags.astype(complex), window_len=4, hop=1, sample_rate=50)
    verdict = rhythm_present(asacc(V), 50.0)
    assert verdict.accept
    assert verdict.frequency_hz == pytest.approx(1.0, abs=0.02)
    assert verdict.margin_db > 10.0


def test_stride_harmonic_steps_down_to_the_step_fundamental():
    # even-lag peaks twice as strong as odd ones: dominant bin is the octave
    fr = 50.0
    lags = np.arange(600) / fr
    vec = 0.15 * np.cos(2 * np.pi * 0.9 * lags) + 0.3 * np.cos(2 * np.pi * 1.8 * lags)
    vec += 0.12 * np.cos(2 * np.pi * 2.7 * lags) + 0.001 * np.sin(2 * np.pi * 9.1 * lags)
    vec[0] = 1.0
    verdict = rhythm_present(Asacc(vec), fr)
    assert verdict.accept
    assert verdict.frequency_hz == pytest.approx(0.9, abs=0.05)
