import numpy as np
import pytest

from footfall import FootfallError
from footfall.bss import decompose, sdr, sir


def _orthonormal_signals(k=4, n=4000, seed=3):
    """Exactly orthogonal unit-energy signals via QR."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return [q[:, i] for i in range(k)]


def test_sir_equal_energy_interferer_is_zero_db():
    t, i, _, _ = _orthonormal_signals()
    assert sir(t + i, t, [i]) == pytest.approx(0.0, abs=1e-9)


def test_sdr_with_minus10db_artifacts_is_10db():
    t, i, n, a = _orthonormal_signals()
    est = t + np.sqrt(0.1) * a  # artifact energy 10 dB below target
    assert sdr(est, t, [i], n) == pytest.approx(10.0, abs=1e-9)


def test_perfect_estimate_hits_cap():
    t, i, _, _ = _orthonormal_signals()
    assert sir(t, t, [i]) == 100.0
    assert sdr(t, t, [i]) == 100.0


def test_scale_invariance():
    t, i, n, a = _orthonormal_signals()
    est = t + 0.5 * i + 0.2 * a
    assert sir(3.7 * est, t, [i], n) == pytest.approx(sir(est, t, [i], n), abs=1e-9)
    assert sdr(3.7 * est, t, [i], n) == pytest.approx(sdr(est, t, [i], n), abs=1e-9)


def test_decompose_parts_sum_to_estimate():
    t, i, n, a = _orthonormal_signals()
    est = 0.9 * t + 0.4 * i + 0.1 * n + 0.05 * a
    parts = decompose(est, t, [i], n)
    total = parts["s_tgt"] + parts["e_itf"] + parts["e_nse"] + parts["e_art"]
    assert np.allclose(total, est, atol=1e-12)


def test_zero_target_rejected():
    t, i, _, _ = _orthonormal_signals()
    with pytest.raises(FootfallError):
        sir(t + i, np.zeros_like(t), [i])


def _bad(x, kind):
    """x with one NaN sample, x stacked into two rows, or a string."""
    if kind == "str":
        return "a"
    if kind == "nan":
        x = x.copy()
        x[7] = np.nan
        return x
    return np.stack([x, x])


@pytest.mark.parametrize("kind", ["nan", "2-d", "str"])
@pytest.mark.parametrize("name", ["estimate", "target", "interferers", "noise"])
def test_decompose_names_a_non_finite_or_multi_dim_input(capfd, name, kind):
    t, i, n, a = _orthonormal_signals()
    args = {"estimate": t + 0.5 * i + 0.1 * a, "target": t, "interferers": [i], "noise": n}
    args[name] = [_bad(i, kind)] if name == "interferers" else _bad(args[name], kind)
    with pytest.raises(FootfallError) as err:
        sdr(**args)
    assert err.value.details["argument"] == name
    assert capfd.readouterr().err == ""  # LAPACK never saw the bad input


@pytest.mark.parametrize("name", ["interferers", "noise"])
def test_decompose_names_a_reference_of_another_length(name):
    t, i, n, _ = _orthonormal_signals()
    args = {"interferers": [i], "noise": n}
    args[name] = [i[:-1]] if name == "interferers" else n[:-1]
    with pytest.raises(FootfallError) as err:
        decompose(t + 0.5 * i, t, **args)
    assert err.value.details["argument"] == name
