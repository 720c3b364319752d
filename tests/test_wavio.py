import numpy as np
import pytest

from footfall import FootfallError, MultichannelWaveform, Waveform
from footfall.wavio import read_wav, write_wav


@pytest.mark.parametrize("rate", [16000, 48000, 192000])
def test_float32_round_trip(tmp_path, rate):
    rng = np.random.default_rng(7)
    w = Waveform(rng.uniform(-1, 1, 4000), rate)
    path = tmp_path / "x.wav"
    write_wav(path, w, "float32")
    back = read_wav(path)
    assert back.sample_rate == rate
    assert np.max(np.abs(back.samples - w.samples)) < 1e-6


def test_pcm16_round_trip_within_lsb(tmp_path):
    rng = np.random.default_rng(8)
    w = Waveform(rng.uniform(-0.99, 0.99, 4000), 16000)
    path = tmp_path / "x.wav"
    write_wav(path, w, "pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32767.0


def test_multichannel_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    w = MultichannelWaveform(rng.uniform(-1, 1, (4, 2000)), 48000)
    path = tmp_path / "m.wav"
    write_wav(path, w, "float32")
    back = read_wav(path)
    assert isinstance(back, MultichannelWaveform)
    assert back.n_channels == 4
    assert np.max(np.abs(back.samples - w.samples)) < 1e-6


def test_pcm16_rejects_clipping(tmp_path):
    w = Waveform(np.array([0.0, 1.5]), 16000)
    with pytest.raises(FootfallError):
        write_wav(tmp_path / "c.wav", w, "pcm16")


def test_unknown_encoding(tmp_path):
    with pytest.raises(FootfallError):
        write_wav(tmp_path / "u.wav", Waveform(np.zeros(10), 16000), "mp3")


@pytest.mark.parametrize("keep", [10, 30, 60, 102], ids=["riff", "fmt", "data-header", "data"])
def test_truncated_file_raises_with_the_path(tmp_path, keep):
    path = tmp_path / "t.wav"
    write_wav(path, Waveform(np.zeros(1000), 16000), "float32")
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FootfallError) as err:
        read_wav(path)
    assert err.value.details["path"] == str(path)


def test_missing_file():
    with pytest.raises(FootfallError):
        read_wav("/nonexistent/nothing.wav")
