"""Tests for repro.optics.interferometer."""

import numpy as np
import pytest

from repro.exceptions import NetworkConfigError, NoiseError
from repro.network import QuantumNetwork
from repro.noise import NoiseModel, sample_mesh_matrix
from repro.optics.interferometer import Interferometer


@pytest.fixture
def trained_net(rng):
    return QuantumNetwork(8, 3).initialize("uniform", rng=rng)


class TestIdealDevice:
    def test_matches_network(self, trained_net):
        device = Interferometer.from_network(trained_net)
        assert np.allclose(
            device.transfer_matrix(), trained_net.unitary(), atol=1e-12
        )

    def test_descending_network(self, rng):
        net = QuantumNetwork(6, 2, descending=True).initialize(
            "uniform", rng=rng
        )
        device = Interferometer.from_network(net)
        assert np.allclose(device.transfer_matrix(), net.unitary())

    def test_apply_1d(self, trained_net, rng):
        device = Interferometer.from_network(trained_net)
        v = rng.normal(size=8)
        assert np.allclose(device.apply(v), trained_net.forward(v))

    def test_complex_network_rejected(self):
        net = QuantumNetwork(4, 1, allow_phase=True)
        with pytest.raises(NetworkConfigError, match="phase"):
            Interferometer.from_network(net)

    def test_theta_shape_validated(self):
        with pytest.raises(NetworkConfigError, match="thetas"):
            Interferometer(8, np.zeros((2, 5)))

    def test_nan_thetas_rejected(self):
        bad = np.zeros((2, 7))
        bad[0, 0] = np.nan
        with pytest.raises(NetworkConfigError):
            Interferometer(8, bad)


class TestImperfectDevice:
    def test_miscalibration_frozen(self, trained_net):
        model = NoiseModel(theta_sigma=0.05)
        device = Interferometer.from_network(
            trained_net, model, rng=np.random.default_rng(0)
        )
        t1 = device.transfer_matrix()
        t2 = device.transfer_matrix()
        assert np.allclose(t1, t2)  # error drawn once, not per call

    def test_miscalibration_perturbs(self, trained_net):
        model = NoiseModel(theta_sigma=0.05)
        device = Interferometer.from_network(
            trained_net, model, rng=np.random.default_rng(0)
        )
        assert not np.allclose(
            device.transfer_matrix(), trained_net.unitary(), atol=1e-6
        )

    def test_small_sigma_small_deviation(self, trained_net):
        model = NoiseModel(theta_sigma=1e-6)
        device = Interferometer.from_network(
            trained_net, model, rng=np.random.default_rng(1)
        )
        err = np.max(np.abs(device.transfer_matrix() - trained_net.unitary()))
        assert err < 1e-4

    def test_loss_makes_subunitary(self, trained_net):
        model = NoiseModel(loss_per_gate=0.01)
        device = Interferometer.from_network(trained_net, model)
        t = device.transfer_matrix()
        norms = np.linalg.norm(t, axis=0)
        assert np.all(norms < 1.0)

    def test_loss_norm_exact_per_column(self, trained_net):
        """Every mode crosses all N-1 gates of a layer's chain once, so a
        basis input loses exactly (1-loss)^(gates_applied/...) -- check the
        aggregate bound instead: output power <= (1-loss)^layers."""
        loss = 0.01
        model = NoiseModel(loss_per_gate=loss)
        device = Interferometer.from_network(trained_net, model)
        t = device.transfer_matrix()
        power = np.linalg.norm(t, axis=0) ** 2
        assert np.all(power <= (1 - loss) ** device.num_layers + 1e-12)

    def test_total_transmission_formula(self, trained_net):
        model = NoiseModel(loss_per_gate=0.1)
        device = Interferometer.from_network(trained_net, model)
        assert device.total_transmission() == pytest.approx(
            0.9 ** (2 * 3)
        )

    def test_programmed_thetas_exclude_miscalibration(self, trained_net):
        """The frozen jitter lives in the transfer matrix; the programmed
        settings stay the trained angles."""
        model = NoiseModel(theta_sigma=0.1)
        device = Interferometer.from_network(
            trained_net, model, rng=np.random.default_rng(5)
        )
        assert np.array_equal(
            device.programmed_thetas, trained_net.theta_matrix
        )
        assert not np.allclose(
            device.transfer_matrix(), trained_net.unitary(), atol=1e-6
        )


class TestOneFold:
    """The device is folded by the noise stack's own mesh sampler."""

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize(
        "sigma,loss", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.01), (0.1, 0.03)]
    )
    def test_transfer_matrix_is_sample_mesh_matrix(
        self, descending, sigma, loss
    ):
        net = QuantumNetwork(6, 3, descending=descending).initialize(
            "uniform", rng=np.random.default_rng(2)
        )
        model = NoiseModel(theta_sigma=sigma, loss_per_gate=loss)
        device = Interferometer.from_network(
            net, noise=model, rng=np.random.default_rng(7)
        )
        expected = sample_mesh_matrix(
            net, net.get_flat_params(), model, np.random.default_rng(7)
        )
        assert np.array_equal(device.transfer_matrix(), expected)

    def test_apply_is_transfer_product(self, trained_net, rng):
        device = Interferometer.from_network(
            trained_net,
            NoiseModel(theta_sigma=0.05, loss_per_gate=0.01),
            rng=np.random.default_rng(3),
        )
        x = rng.normal(size=(8, 5))
        assert np.array_equal(device.apply(x), device.transfer_matrix() @ x)

    @pytest.mark.parametrize(
        "field",
        [{"dephasing": 0.1}, {"depolarizing": 0.1}, {"shots": 100}],
        ids=["dephasing", "depolarizing", "shots"],
    )
    def test_off_mesh_fields_rejected(self, trained_net, field):
        with pytest.raises(NoiseError, match="off the mesh"):
            Interferometer.from_network(trained_net, NoiseModel(**field))
