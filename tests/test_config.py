"""Run-configuration parsing and defaults."""
import pytest

from mrclink.config import EncoderSettings, RunConfig
from mrclink.errors import InputFormatError


def test_defaults_match_documented_configuration():
    cfg = RunConfig()
    assert cfg.k == 5
    assert (cfg.alpha1, cfg.alpha2) == (0.75, 0.25)
    assert cfg.beta == 0.5
    assert cfg.nil_threshold == 0.5
    assert cfg.warmup == pytest.approx(0.1)
    assert (cfg.max_len_local, cfg.max_len_global) == (256, 512)
    assert cfg.encoder == EncoderSettings(d=64, n_layers=1, n_heads=2)


def test_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"k": 7, "beta": 0.25, "no_rerank": true}', encoding="utf-8")
    assert RunConfig.from_file(str(path)) == RunConfig(k=7, beta=0.25, no_rerank=True)


def test_lowercase_k_accepted():
    assert RunConfig.from_dict({"k": 3}).k == 3


def test_conflicting_k_keys_rejected():
    # ``k`` is the only spelling: an uppercase ``K`` is an unknown key
    with pytest.raises(InputFormatError, match="unknown config keys: \\['K'\\]"):
        RunConfig.from_dict({"K": 1, "k": 2})


def test_unknown_keys_rejected():
    with pytest.raises(InputFormatError):
        RunConfig.from_dict({"gamma": 1.0})
    with pytest.raises(InputFormatError):
        RunConfig.from_dict({"encoder": {"d": 8, "layers": 1}})


def test_invalid_values_rejected():
    for bad in (
        dict(beta=1.5),
        dict(beta=-0.01),
        dict(k=0),
        dict(alpha1=0.0, alpha2=0.0),
        dict(alpha1=-0.1),
        dict(alpha2=-0.1),
        dict(gate_mode="other"),
        dict(gate_mode="gru_like"),
        dict(history_mode="other"),
    ):
        with pytest.raises(InputFormatError):
            RunConfig(**bad)
    # the range ends and a zero weight stay valid
    assert RunConfig(beta=0.0).beta == 0.0 and RunConfig(beta=1.0).beta == 1.0
    assert RunConfig(alpha2=0.0).alpha2 == 0.0


def test_range_ends_of_threshold_warmup_and_rates_are_valid():
    for name in ("nil_threshold", "warmup"):
        assert getattr(RunConfig(**{name: 0.0}), name) == 0.0 and getattr(RunConfig(**{name: 1}), name) == 1
    assert RunConfig(lr_local=0.0, lr_global=0).lr_global == 0


@pytest.mark.parametrize(
    "data",
    [
        {"encoder": {"d": 30, "n_heads": 4}},
        {"encoder": {"d": 0}},
        {"encoder": {"d": 8.0}},
        {"encoder": [1, 2]},
        {"max_len_local": 4},
        {"max_len_global": 7},
        {"lr_local": "x"},
        {"lr_global": float("inf")},
        {"stop_accuracy": "high"},
        {"stop_accuracy": True},
        {"seed": -1},
        {"k": True},
        {"nil_verifier": "no"},
        {"epochs_local": -1},
        {"lr_local": 10**400},
        {"stop_accuracy": -(10**400)},
        {"nil_threshold": 5},
        {"nil_threshold": -1},
        {"warmup": 3},
        {"warmup": -0.5},
        {"lr_local": -1e-3},
        {"lr_global": -1e-5},
        {"stop_accuracy": 5},
        {"stop_accuracy": -1},
        {"stop_accuracy": 1.5},
    ],
    ids=repr,
)
def test_values_that_break_training_rejected(data):
    with pytest.raises(InputFormatError):
        RunConfig.from_dict(data)


def test_ints_pass_for_floats_and_stop_accuracy_may_be_null():
    cfg = RunConfig.from_dict({"lr_local": 1, "beta": 0, "stop_accuracy": 1, "epochs_local": 0})
    assert (cfg.lr_local, cfg.beta, cfg.stop_accuracy, cfg.epochs_local) == (1, 0, 1, 0)
    assert RunConfig.from_dict({"stop_accuracy": None}).stop_accuracy is None


def test_non_utf8_config_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(InputFormatError, match="cfg.json"):
        RunConfig.from_file(str(path))
