import json
import struct

import numpy as np
import pytest

from tricenter.autodiff import Tensor
from tricenter.errors import ContractError, DataFormatError, ShapeError
from tricenter.nn import (Adam, Checkpoint, FeatureExtractor, LinearHead,
                          config_fingerprint, load_checkpoint, params_fingerprint,
                          save_checkpoint)


def identity_extractor():
    fx = FeatureExtractor([3, 3], rng=np.random.default_rng(0))
    fx.weights[0].data = np.eye(3)
    fx.biases[0].data = np.zeros(3)
    return fx


def test_identity_layer_passes_input_through():
    fx = identity_extractor()
    out = fx(Tensor([[1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_zero_weights_yield_bias_rows():
    fx = FeatureExtractor([2, 3], rng=np.random.default_rng(0))
    fx.weights[0].data = np.zeros((2, 3))
    fx.biases[0].data = np.array([0.5, -1.0, 2.0])
    out = fx(Tensor(np.random.default_rng(1).normal(size=(4, 2))))
    for row in out.data:
        np.testing.assert_array_equal(row, [0.5, -1.0, 2.0])


def test_two_layer_forward_matches_manual_matmul():
    rng = np.random.default_rng(42)
    fx = FeatureExtractor([4, 5, 3], activation="relu", rng=np.random.default_rng(7))
    x = rng.normal(size=(6, 4))
    manual = np.maximum(x @ fx.weights[0].data + fx.biases[0].data, 0.0)
    manual = manual @ fx.weights[1].data + fx.biases[1].data
    np.testing.assert_allclose(fx(Tensor(x)).data, manual, atol=1e-12)


def test_forward_rejects_wrong_width():
    fx = FeatureExtractor([4, 2], rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        fx(Tensor(np.ones((3, 5))))


def test_glorot_bounds_and_seeding():
    fx1 = FeatureExtractor([10, 20], rng=np.random.default_rng(5))
    fx2 = FeatureExtractor([10, 20], rng=np.random.default_rng(5))
    s = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(fx1.weights[0].data) <= s)
    np.testing.assert_array_equal(fx1.weights[0].data, fx2.weights[0].data)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_constant_positive_gradient_decreases_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=0.01)
        values = [p.data.item()]
        for _ in range(50):
            p.grad = np.array([2.5])
            opt.step()
            values.append(p.data.item())
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_first_step_matches_hand_recurrence(self):
        # Scalar Adam oracle computed independently of the implementation.
        lr, b1, b2, eps, g = 1e-4, 0.9, 0.99, 1e-8, 0.37
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        expected_delta = lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], lr=lr, beta1=b1, beta2=b2, epsilon=eps)
        p.grad = np.array([g])
        opt.step()
        np.testing.assert_allclose(-p.data.item(), expected_delta, rtol=1e-12)
        # magnitude is ~lr after bias correction
        assert abs(-p.data.item() - lr) < 1e-8

    def test_missing_gradient_raises(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p])
        with pytest.raises(ContractError):
            opt.step()

    def test_grads_untouched_by_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.grad, [0.5])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        fx = FeatureExtractor([4, 8, 3], rng=np.random.default_rng(11))
        head = LinearHead(3, 5, rng=np.random.default_rng(12))
        centers = np.random.default_rng(13).normal(size=(5, 3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=7, config_fingerprint="abc123",
                                         head=head, center_matrix=centers,
                                         center_mode="computed", center_source_epoch=6,
                                         center_p_norm=3))
        loaded = load_checkpoint(path)
        for a, b in zip(fx.state(), loaded.extractor.state()):
            assert np.array_equal(a, b)
        for a, b in zip(head.state(), loaded.head.state()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.center_matrix, centers)
        assert loaded.epoch == 7
        assert loaded.config_fingerprint == "abc123"
        assert loaded.center_mode == "computed"
        assert loaded.center_p_norm == 3

    def test_centers_written_without_p_norm_read_as_p_norm_two(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, lambda h: h["centers"].pop("p_norm")))
        assert load_checkpoint(path).center_p_norm == 2

    def test_forward_identical_after_round_trip(self, tmp_path):
        fx = FeatureExtractor([6, 10, 4], activation="tanh", rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(9, 6))
        before = fx(Tensor(x)).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=0, config_fingerprint="x"))
        after = load_checkpoint(path).extractor(Tensor(x)).data
        assert np.array_equal(before, after)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "m.ckpt"
        fx = FeatureExtractor([3, 4, 2], rng=np.random.default_rng(5))
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=1, config_fingerprint="x",
                                         center_matrix=np.zeros((3, 2)), center_mode="computed"))
        return path, path.read_bytes()

    @staticmethod
    def _with_header(blob, edit):
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8:8 + hlen])
        edit(header)
        text = json.dumps(header).encode()
        return blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + hlen:]

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:6],  # cut inside the header length field
        lambda b: b[:20],  # cut inside the JSON header
        lambda b: b[:8] + b"{not json" + b[17:],
        lambda b: b[:-8],  # cut inside the payload
        lambda b: b + b"\x00",  # trailing byte
    ], ids=["length_field", "header", "bad_json", "payload", "trailing"])
    def test_damaged_file_raises_data_format_error(self, tmp_path, corrupt):
        path, blob = self._saved(tmp_path)
        path.write_bytes(corrupt(blob))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["epoch", "config_fingerprint", "extractor", "head",
                                     "centers", "arrays"])
    def test_missing_header_key_raises_data_format_error(self, tmp_path, key):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, lambda h: h.pop(key)))
        with pytest.raises(DataFormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["extractor"].pop("activation"),
        lambda h: h["arrays"][0].pop("shape"),
        lambda h: h["arrays"].pop(0),
        lambda h: h.update(arrays=None),
        lambda h: h.update(centers=1),
        lambda h: h.update(head=[]),
        lambda h: h.update(head={"n_classes": "3"}),
        lambda h: h.update(epoch="1"),
        lambda h: h.update(extra=[]),
        lambda h: h["extractor"].update(layer_sizes=["3", "4", "2"]),
        lambda h: h["extractor"].update(activation=["relu"]),
        lambda h: h["arrays"][0].update(shape=["3", 4]),
        lambda h: h["arrays"][0].update(shape=[-3, -4]),
        lambda h: h["arrays"][0].update(shape=[3, 5]),  # more than the payload holds
        lambda h: h["arrays"][0].update(shape=[3, 3]),  # leaves bytes over
        lambda h: h["arrays"][0].update(shape=[2 ** 32, 2 ** 32]),  # wraps in int64
        lambda h: h["centers"].update(p_norm="2"),
        lambda h: h["centers"].update(p_norm=0),
        lambda h: h["centers"].update(p_norm=True),
        lambda h: h["centers"].update(p_norm=1.5),
    ], ids=["extractor_key", "array_shape", "array_entry", "array_table", "centers_type",
            "head_type", "head_classes_type", "epoch_type", "extra_type", "layer_sizes_type",
            "activation_type", "shape_type", "shape_negative", "shape_too_big",
            "shape_too_small", "shape_overflow", "p_norm_type", "p_norm_zero", "p_norm_bool",
            "p_norm_float"])
    def test_malformed_header_fields_raise_data_format_error(self, tmp_path, edit):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, edit))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[3, 2], [6]], ids=["head_weight", "centers_1d"])
    def test_arrays_that_do_not_fit_the_topology_raise_shape_error(self, tmp_path, shape):
        path = tmp_path / "m.ckpt"
        fx = FeatureExtractor([3, 4, 2], rng=np.random.default_rng(5))
        head = LinearHead(2, 3, rng=np.random.default_rng(6))
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=1, config_fingerprint="x", head=head,
                                         center_matrix=np.zeros((3, 2))))
        name = "head.0" if shape == [3, 2] else "centers"

        def reshape(h):
            entry = next(e for e in h["arrays"] if e["name"] == name)
            entry["shape"] = shape  # same element count, wrong layout
        path.write_bytes(self._with_header(path.read_bytes(), reshape))
        with pytest.raises(ShapeError):
            load_checkpoint(path)


def test_config_fingerprint_stable_and_sensitive():
    a = config_fingerprint({"x": 1, "y": [2, 3]})
    b = config_fingerprint({"y": [2, 3], "x": 1})
    c = config_fingerprint({"x": 2, "y": [2, 3]})
    assert a == b
    assert a != c


def test_params_fingerprint_changes_with_values():
    arrays = [np.zeros((2, 2)), np.ones(3)]
    f1 = params_fingerprint(arrays)
    arrays[0][0, 0] = 1e-12
    assert params_fingerprint(arrays) != f1
