"""Tests for repro.noise.model — the frozen NoiseModel description."""

import json

import numpy as np
import pytest

from repro.exceptions import NoiseError
from repro.noise import NOISE_PRESETS, NoiseModel, noise_preset


class TestValidation:
    def test_defaults_are_ideal(self):
        model = NoiseModel()
        assert model.is_ideal
        assert not model.has_channel_noise
        assert model.shots is None

    @pytest.mark.parametrize(
        "field", ["theta_sigma", "loss_per_gate", "dephasing", "depolarizing"]
    )
    def test_negative_rejected(self, field):
        with pytest.raises(NoiseError):
            NoiseModel(**{field: -0.1})

    @pytest.mark.parametrize("field", ["dephasing", "depolarizing"])
    def test_fraction_above_one_rejected(self, field):
        with pytest.raises(NoiseError):
            NoiseModel(**{field: 1.5})

    def test_full_loss_rejected(self):
        with pytest.raises(NoiseError):
            NoiseModel(loss_per_gate=1.0)

    @pytest.mark.parametrize("shots", [0, -5, 2.5, True])
    def test_bad_shots_rejected(self, shots):
        with pytest.raises(NoiseError):
            NoiseModel(shots=shots)

    def test_numpy_integer_shots_accepted(self):
        model = NoiseModel(shots=np.int64(100))
        assert model == NoiseModel(shots=100)
        assert type(model.shots) is int
        assert model.to_json() == NoiseModel(shots=100).to_json()

    def test_nan_rejected(self):
        with pytest.raises(NoiseError):
            NoiseModel(theta_sigma=float("nan"))


class TestSerialization:
    def test_json_round_trip(self):
        model = NoiseModel(
            theta_sigma=0.02, loss_per_gate=0.01, dephasing=0.05, shots=4096
        )
        assert NoiseModel.from_json(model.to_json()) == model

    def test_dict_round_trip(self):
        model = NoiseModel(depolarizing=0.1)
        assert NoiseModel.from_dict(model.to_dict()) == model

    def test_unknown_keys_rejected(self):
        with pytest.raises(NoiseError):
            NoiseModel.from_dict({"theta_sigma": 0.1, "bogus": 1})

    def test_canonical_json_is_sorted_and_stable(self):
        a = NoiseModel(dephasing=0.05).to_json()
        assert a == NoiseModel.from_json(a).to_json()
        assert list(json.loads(a)) == sorted(json.loads(a))

    def test_spec_string_prefers_preset_name(self):
        for name, model in NOISE_PRESETS.items():
            assert model.spec_string() == name
        custom = NoiseModel(dephasing=0.123)
        assert custom.spec_string().startswith("{")


class TestFromSpec:
    def test_none_and_empty(self):
        assert NoiseModel.from_spec(None) is None
        assert NoiseModel.from_spec("") is None

    def test_model_passthrough(self):
        model = NoiseModel(dephasing=0.05)
        assert NoiseModel.from_spec(model) is model

    def test_preset_names(self):
        for name in ("mild", "lossy", "harsh"):
            assert NoiseModel.from_spec(name) == NOISE_PRESETS[name]
            assert noise_preset(name) == NOISE_PRESETS[name]

    def test_json_string(self):
        model = NoiseModel.from_spec('{"theta_sigma": 0.03}')
        assert model.theta_sigma == 0.03

    def test_mapping(self):
        model = NoiseModel.from_spec({"shots": 128})
        assert model.shots == 128

    def test_unknown_preset_raises(self):
        with pytest.raises(NoiseError):
            NoiseModel.from_spec("extreme")
        with pytest.raises(NoiseError):
            noise_preset("extreme")

    def test_malformed_json_raises(self):
        with pytest.raises(NoiseError):
            NoiseModel.from_spec('{"theta_sigma": }')


class TestScaling:
    def test_scaled_zero_is_ideal_with_shots_kept(self):
        model = NOISE_PRESETS["lossy"].scaled(0.0)
        assert model.theta_sigma == 0.0
        assert model.loss_per_gate == 0.0
        assert model.shots == NOISE_PRESETS["lossy"].shots

    def test_scaled_clips_fractions(self):
        model = NoiseModel(dephasing=0.6).scaled(2.0)
        assert model.dephasing == 1.0

    def test_presets_strictly_ordered(self):
        mild, lossy, harsh = (
            NOISE_PRESETS["mild"],
            NOISE_PRESETS["lossy"],
            NOISE_PRESETS["harsh"],
        )
        for field in ("theta_sigma", "loss_per_gate", "dephasing",
                      "depolarizing"):
            assert (
                getattr(mild, field)
                < getattr(lossy, field)
                < getattr(harsh, field)
            )
        assert mild.shots > lossy.shots > harsh.shots
