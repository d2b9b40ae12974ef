"""Embedding network: init, forward, manual backward, checkpoints."""

import re

import numpy as np
import pytest

import tape as ad
from crowdmeta.encoder import (
    EncoderConfig,
    EncoderParams,
    backward,
    forward,
    forward_recorded,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def fd_gradient(loss_fn, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (loss_fn(plus) - loss_fn(minus)) / (2 * step)
    return grad


def tape_forward(x, params):
    """The encoder on the test tape: output tensor plus the leaf parameters."""
    weight_ts = [ad.Tensor(w) for w in params.weights]
    bias_ts = [ad.Tensor(b) for b in params.biases]
    h = ad.Tensor(np.asarray(x, dtype=np.float64))
    for i, (w, b) in enumerate(zip(weight_ts, bias_ts)):
        h = ad.matmul(h, w) + ad.reshape(b, (1, b.data.shape[0]))
        if i < len(weight_ts) - 1:
            h = ad.relu(h)
    return h, weight_ts, bias_ts


class TestInit:
    def test_deterministic(self):
        config = EncoderConfig(4, (8,), 3, init_seed=5)
        a, b = init_params(config), init_params(config)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_param_count_no_hidden(self):
        config = EncoderConfig(3, (), 3)
        params = init_params(config)
        assert config.num_params == 12
        assert params.weights[0].shape == (3, 3)

    def test_biases_zero(self):
        params = init_params(EncoderConfig(5, (7, 6), 2))
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_he_scale(self):
        params = init_params(EncoderConfig(500, (400,), 2, init_seed=1))
        assert np.std(params.weights[0]) == pytest.approx(np.sqrt(2 / 500), rel=0.05)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            EncoderConfig(0, (4,), 2)


class TestForward:
    def test_zero_params_zero_output(self):
        params = EncoderParams(
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        np.testing.assert_array_equal(forward(np.ones(3), params), np.zeros(2))

    def test_identity_layer(self):
        params = EncoderParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.5, 2.0, 0.0])
        np.testing.assert_array_equal(forward(x, params), x)

    def test_batch_matches_stacked_singles(self):
        # BLAS may round single-row and batch matmuls differently
        params = init_params(EncoderConfig(4, (6,), 3, init_seed=2))
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((7, 4))
        singles = np.stack([forward(x, params) for x in batch])
        np.testing.assert_allclose(forward(batch, params), singles,
                                   rtol=1e-13, atol=1e-14)

    def test_dimension_mismatch(self):
        params = init_params(EncoderConfig(4, (), 2))
        with pytest.raises(ValueError, match="dimension"):
            forward(np.ones(5), params)

    def test_graph_forward_matches_numpy(self):
        params = init_params(EncoderConfig(5, (8, 4), 3, init_seed=3))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 5))
        np.testing.assert_array_equal(tape_forward(x, params)[0].data, forward(x, params))


def test_relu_in_place_matches_the_mask_multiply():
    # integer weights and inputs make many pre-activations exactly 0; the mask
    # multiply leaves -0.0 where the in-place maximum leaves +0.0, equal values
    rng = np.random.default_rng(4)
    dims = [(5, 8), (8, 6), (6, 3)]
    params = EncoderParams(weights=[rng.integers(-2, 3, d).astype(float) for d in dims],
                           biases=[rng.integers(-1, 2, d[1]).astype(float) for d in dims])
    x = rng.integers(-1, 2, (40, 5)).astype(float)
    h, inputs, masks = x, [], []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w + b
        if i < len(dims) - 1:
            masks.append(h > 0.0)
            assert np.any(h == 0.0) and np.any(h < 0.0)
            h = h * masks[-1]
    out, record = forward_recorded(x, params)
    np.testing.assert_array_equal(out, h)
    assert len(record.inputs) == len(inputs) and len(record.masks) == len(masks)
    for got, want in zip(record.inputs + record.masks, inputs + masks):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert not any(np.signbit(a).any() for a in record.inputs[1:])


class TestBackward:
    def test_linear_adjoint_is_outer_product(self):
        params = init_params(EncoderConfig(3, (), 2, init_seed=4))
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        _, record = forward_recorded(x, params)
        grad = backward(record, g)
        grad_w = grad[:6].reshape(3, 2)
        np.testing.assert_allclose(grad_w, np.outer(x[0], g[0]), rtol=1e-12)
        np.testing.assert_allclose(grad[6:], g[0], rtol=1e-12)

    def test_zero_upstream_zero_gradient(self):
        params = init_params(EncoderConfig(4, (5,), 3, init_seed=5))
        x = np.random.default_rng(2).standard_normal((4, 4))
        _, record = forward_recorded(x, params)
        np.testing.assert_array_equal(backward(record, np.zeros((4, 3))), 0.0)

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5), (8, 6, 4)])
    def test_matches_finite_differences(self, hidden):
        config = EncoderConfig(4, hidden, 3, init_seed=6)
        params = init_params(config)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 3))

        def loss(theta):
            p = EncoderParams.unflatten(config, theta)
            return float(np.sum(forward(x, p) * g))

        _, record = forward_recorded(x, params)
        analytic = backward(record, g)
        numeric = fd_gradient(loss, params.flatten())
        worst = np.max(np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric)))
        assert worst < 1e-6

    def test_agrees_with_tape(self):
        params = init_params(EncoderConfig(4, (6,), 3, init_seed=7))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 3))
        _, record = forward_recorded(x, params)
        manual = backward(record, g)
        out, weight_ts, bias_ts = tape_forward(x, params)
        ad.backward(ad.tsum(ad.mul(out, g)))
        taped = np.concatenate([t.grad.ravel() for pair in zip(weight_ts, bias_ts)
                                for t in pair])
        np.testing.assert_allclose(manual, taped, rtol=1e-12, atol=1e-15)

    def test_mismatched_record_rejected(self):
        params = init_params(EncoderConfig(4, (6,), 3, init_seed=8))
        x = np.ones((2, 4))
        _, record = forward_recorded(x, params)
        with pytest.raises(ValueError, match="record"):
            backward(record, np.ones((3, 3)))


class TestFlattenCheckpoint:
    def test_flatten_roundtrip_exact(self):
        config = EncoderConfig(4, (7, 5), 3, init_seed=9)
        params = init_params(config)
        again = EncoderParams.unflatten(config, params.flatten())
        for a, b in zip(params.weights, again.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.biases, again.biases):
            np.testing.assert_array_equal(a, b)

    def test_wrong_length_rejected(self):
        config = EncoderConfig(4, (), 2)
        with pytest.raises(ValueError, match="entries"):
            EncoderParams.unflatten(config, np.zeros(5))

    def test_checkpoint_roundtrip(self, tmp_path):
        config = EncoderConfig(5, (6, 4), 3, init_seed=10)
        params = init_params(config)
        path = str(tmp_path / "enc.bin")
        save_checkpoint(path, config, params)
        config2, params2 = load_checkpoint(path)
        assert config2 == config
        np.testing.assert_array_equal(params.flatten(), params2.flatten())

    def test_header_layout(self, tmp_path):
        config = EncoderConfig(3, (4,), 2, init_seed=1)
        params = init_params(config)
        path = str(tmp_path / "enc.bin")
        save_checkpoint(path, config, params)
        blob = open(path, "rb").read()
        assert blob[:6] == b"CMETA1"
        header = np.frombuffer(blob[6:22], dtype="<u4")
        np.testing.assert_array_equal(header, [3, 2, 1, 4])
        assert int(np.frombuffer(blob[22:30], dtype="<i8")[0]) == 1
        floats = np.frombuffer(blob[30:], dtype="<f8")
        np.testing.assert_array_equal(floats, params.flatten())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTME" + b"\x00" * 40)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("cut", [10, 18, 29, 33, -8, -1])
    def test_truncated_checkpoint_rejected(self, cut, tmp_path):
        config = EncoderConfig(3, (4,), 2, init_seed=1)  # header ends at byte 30
        path = tmp_path / "enc.bin"
        save_checkpoint(str(path), config, init_params(config))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated checkpoint$"):
            load_checkpoint(str(path))

    def test_zero_layer_width_names_the_file(self, tmp_path):
        config = EncoderConfig(3, (4,), 2, init_seed=1)
        path = tmp_path / "enc.bin"
        save_checkpoint(str(path), config, init_params(config))
        blob = bytearray(path.read_bytes())
        blob[18:22] = np.array([0], dtype="<u4").tobytes()  # the hidden width
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: all layer widths "
                                             r"must be >= 1, got \(3, 0, 2\)$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("extra", [3, 8])
    def test_trailing_bytes_rejected(self, extra, tmp_path):
        config = EncoderConfig(3, (4,), 2, init_seed=1)
        path = tmp_path / "enc.bin"
        save_checkpoint(str(path), config, init_params(config))
        path.write_bytes(path.read_bytes() + b"\x01" * extra)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {extra} trailing bytes$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, value, tmp_path):
        # the training loop reads θ unchecked, so parameters entering from a
        # file are where the finiteness check must stay
        config = EncoderConfig(3, (4,), 2, init_seed=1)
        path = tmp_path / "enc.bin"
        save_checkpoint(str(path), config, init_params(config))
        blob = bytearray(path.read_bytes())
        blob[30 + 8 * 5 : 30 + 8 * 6] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: parameters contain "
                                             r"non-finite values$"):
            load_checkpoint(str(path))
