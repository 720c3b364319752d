"""One short capture per workload, run twice from the same seed: inputs,
outputs and quality must agree bitwise, traced or not."""

from dataclasses import replace

import numpy as np
import pytest

import chain
import harness
import score
from footfall.idnet import TrainConfig
from spans import NullTracer, Tracer
from workloads import WORKLOADS, render_banks, render_capture, scene_spec, synthesize

SEED = 11
SHORT_S = {"babble16k": 6.0, "quiet48k": 4.0, "nowalk60s": 12.0, "synth48k": 3.0}


@pytest.fixture(scope="module")
def analyzers():
    """Two independent set-ups per sample rate, kept short with one epoch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "TRAIN", TrainConfig(epochs=1, lr=0.003, batch=8, seed=0))
        out = {}
        for name in ("babble16k", "quiet48k"):
            w = WORKLOADS[name]
            out[w.sample_rate] = [chain.setup(render_banks(w, SEED), w.sample_rate, NullTracer())
                                  for _ in range(2)]
    return out


@pytest.mark.parametrize("name", ["babble16k", "quiet48k", "nowalk60s"])
def test_analysis_capture_repeats_bitwise(name, analyzers):
    w = replace(WORKLOADS[name], duration_s=SHORT_S[name])
    a, b = render_capture(w, SEED, 0), render_capture(w, SEED, 0)
    assert np.array_equal(a.mix.samples, b.mix.samples)
    first, second = analyzers[w.sample_rate]
    tr = Tracer()
    ra = chain.capture(first, a.mix, NullTracer())
    with tr.patched():
        rb = chain.capture(second, b.mix, tr)
    assert tr.spans  # the traced pass really went through the wrappers
    assert harness._digest(ra) == harness._digest(rb)
    assert score.check_capture(a, ra) == []
    assert score.quality(a, ra) == score.quality(b, rb)
    assert ra.rhythm.accept == w.walker


def test_synthesis_scene_repeats_bitwise():
    w = replace(WORKLOADS["synth48k"], duration_s=SHORT_S["synth48k"])
    runs = [synthesize(w, scene_spec(w, SEED, 0), SEED, 0, NullTracer()) for _ in range(2)]
    (scene, mix, truth), (_, mix2, truth2) = runs
    assert np.array_equal(mix.samples, mix2.samples)
    assert [s.to_dict() for s in truth.steps] == [s.to_dict() for s in truth2.steps]
    assert score.check_synthesis(scene, mix, truth) == []
    assert mix.n_channels == 4 and len({s.persona for s in truth.steps}) == 3


def test_checks_catch_broken_outputs():
    w = replace(WORKLOADS["synth48k"], duration_s=SHORT_S["synth48k"])
    scene, mix, truth = synthesize(w, scene_spec(w, SEED, 0), SEED, 0, NullTracer())
    truth.noise_stem = 2.0 * truth.noise_stem
    assert set(score.check_synthesis(scene, mix, truth)) == {
        "mixture equals footstep + voice + noise stems", "achieved SNR equals target"}

    cap = render_capture(replace(WORKLOADS["quiet48k"], duration_s=2.0), SEED, 0)
    res = chain.Result(events=[], rhythm=type("R", (), {"accept": False, "reason": None})(),
                       lags=0, foot=cap.mix, voice=cap.mix, final=cap.mix)
    assert set(score.check_capture(cap, res)) == {"rhythm reason set iff reject",
                                                   "nmf stems sum to mixture"}


def test_traced_run_accounts_for_every_capture():
    run = harness.Run("synth48k", SEED, seconds=0.1, trace=True)
    run.w = replace(run.w, duration_s=2.0, pool=2)
    run.prepare()
    run.measure()
    m = harness.layer_metrics(run)
    layers = sum(m[name] for name in set(harness.SELF_TIME.values()))
    assert abs(layers - m["bench.capture_s_mean"]) < 1e-9
    assert m["footsteps.calls"] == 4 * m["scenes.steps"]
    assert run.failed == 0 and len(run.times) == len(run.traced_times) >= 1
