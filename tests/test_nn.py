import base64
import json
import re
import struct

import numpy as np
import pytest

from tricenter.autodiff import Tensor
from tricenter.centers import CenterTable
from tricenter.errors import ContractError, DataFormatError, ShapeError
from tricenter.nn import (Adam, Checkpoint, FeatureExtractor, LinearHead, config_fingerprint,
                          load_checkpoint, params_fingerprint, save_checkpoint)
from tricenter.training import TrainConfig


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
    fx = FeatureExtractor([4, 5, 3], rng=np.random.default_rng(7))
    x = rng.normal(size=(6, 4))
    manual = np.tanh(x @ fx.weights[0].data + fx.biases[0].data)
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
        opt = Adam([p], 0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_constant_positive_gradient_decreases_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], 0.01)
        values = [p.data.item()]
        for _ in range(50):
            p.grad = np.array([2.5])
            opt.step()
            values.append(p.data.item())
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_first_step_matches_hand_recurrence(self):
        # Scalar Adam oracle computed independently of the implementation,
        # at the moment decays and epsilon that Adam fixes.
        lr, b1, b2, eps, g = 1e-4, 0.9, 0.99, 1e-8, 0.37
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        expected_delta = lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], lr)
        p.grad = np.array([g])
        opt.step()
        np.testing.assert_allclose(-p.data.item(), expected_delta, rtol=1e-12)
        # magnitude is ~lr after bias correction
        assert abs(-p.data.item() - lr) < 1e-8

    def test_missing_gradient_raises(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], 1e-4)
        with pytest.raises(ContractError):
            opt.step()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0],
                             ids=["nan_lr", "inf_lr", "zero_lr"])
    def test_a_non_finite_or_non_positive_lr_is_rejected(self, lr):
        with pytest.raises(ContractError, match="lr must be finite and positive"):
            Adam([Tensor([1.0], requires_grad=True)], lr)
        with pytest.raises(ContractError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)

    def test_grads_untouched_by_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        Adam([p], 0.1).step()
        np.testing.assert_array_equal(p.grad, [0.5])


# Format-2 files written while the distance order was still a setting (at its
# default 2): FeatureExtractor([2, 3, 2]) drawn at rng 5, computed centers
# arange(4) / 4 of source epoch 1, epoch 2.  EARLIER_CHECKPOINT's extractor is
# relu, which no extractor is any more.  TANH_CHECKPOINT's is tanh; the trees
# before and after the activation became a constant write it byte for byte.
EARLIER_CHECKPOINT = base64.b64decode(
    "VENLMeIAAAB7ImNlbnRlcnMiOiB7Im1vZGUiOiAiY29tcHV0ZWQiLCAibl9jbGFzc2VzIjogMiwgInBfbm9ybSI6IDIs"
    "ICJzb3VyY2VfZXBvY2giOiAxfSwgImNvbmZpZ19maW5nZXJwcmludCI6ICIwMTIzNDU2Nzg5YWJjZGVmIiwgImVwb2No"
    "IjogMiwgImV4dHJhY3RvciI6IHsiYWN0aXZhdGlvbiI6ICJyZWx1IiwgImxheWVyX3NpemVzIjogWzIsIDMsIDJdfSwg"
    "ImhlYWQiOiBudWxsLCAidmVyc2lvbiI6IDJ9tmzthx9i5T+Muwvw2ZblP6DpbXr0MKE/tJt2vMYI3r/Us89M80Xvv3wx"
    "a6OJWtC/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAYI0t9s6qyb9jYVAoTOHvv5ruI0jLou+/TkXYu4x/8T+cEHBUX13V"
    "P9RbqljznOK/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/")
TANH_CHECKPOINT = base64.b64decode(
    "VENLMeIAAAB7ImNlbnRlcnMiOiB7Im1vZGUiOiAiY29tcHV0ZWQiLCAibl9jbGFzc2VzIjogMiwgInBfbm9ybSI6IDIs"
    "ICJzb3VyY2VfZXBvY2giOiAxfSwgImNvbmZpZ19maW5nZXJwcmludCI6ICIwMTIzNDU2Nzg5YWJjZGVmIiwgImVwb2No"
    "IjogMiwgImV4dHJhY3RvciI6IHsiYWN0aXZhdGlvbiI6ICJ0YW5oIiwgImxheWVyX3NpemVzIjogWzIsIDMsIDJdfSwg"
    "ImhlYWQiOiBudWxsLCAidmVyc2lvbiI6IDJ9tmzthx9i5T+Muwvw2ZblP6DpbXr0MKE/tJt2vMYI3r/Us89M80Xvv3wx"
    "a6OJWtC/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAYI0t9s6qyb9jYVAoTOHvv5ruI0jLou+/TkXYu4x/8T+cEHBUX13V"
    "P9RbqljznOK/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/")


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        fx = FeatureExtractor([4, 8, 3], rng=np.random.default_rng(11))
        head = LinearHead(3, 5, rng=np.random.default_rng(12))
        centers = np.random.default_rng(13).normal(size=(5, 3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=7, config_fingerprint="abc123",
                                         head=head,
                                         centers=CenterTable(Tensor(centers), mode="computed",
                                                             source_epoch=6)))
        loaded = load_checkpoint(path)
        for a, b in zip(fx.parameters() + head.parameters(),
                        loaded.extractor.parameters() + loaded.head.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(loaded.centers.matrix, centers)
        assert loaded.epoch == 7
        assert loaded.config_fingerprint == "abc123"
        assert loaded.centers.mode == "computed" and loaded.centers.source_epoch == 6

    def test_forward_identical_after_round_trip(self, tmp_path):
        fx = FeatureExtractor([6, 10, 4], rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(9, 6))
        before = fx(Tensor(x)).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=0, config_fingerprint="x"))
        after = load_checkpoint(path).extractor(Tensor(x)).data
        assert np.array_equal(before, after)

    def test_loaded_arrays_are_writable(self, tmp_path):
        path, _ = self._saved(tmp_path)
        loaded = load_checkpoint(path)
        for a in [p.data for p in loaded.extractor.parameters()] + [loaded.centers.matrix]:
            assert a.flags.writeable  # not a view of the file's read-only bytes

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
                                         centers=CenterTable(Tensor(np.zeros((3, 2))),
                                                             mode="computed")))
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
                                     "centers"])
    def test_missing_header_key_raises_data_format_error(self, tmp_path, key):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, lambda h: h.pop(key)))
        with pytest.raises(DataFormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["extractor"].pop("activation"),
        lambda h: h.update(centers=1),
        lambda h: h.update(head=[]),
        lambda h: h.update(head={"n_classes": "3"}),
        lambda h: h.update(epoch="1"),
        lambda h: h["extractor"].update(layer_sizes=["3", "4", "2"]),
        lambda h: h["extractor"].update(layer_sizes=[3]),
        lambda h: h["extractor"].update(activation=["relu"]),
        lambda h: h["centers"].update(p_norm="2"),
        lambda h: h["centers"].update(p_norm=0),
        lambda h: h["centers"].update(p_norm=True),
        lambda h: h["centers"].update(p_norm=1.5),
        lambda h: h["centers"].update(p_norm=2.0),
        lambda h: h["centers"].pop("p_norm"),
        lambda h: h["centers"].pop("n_classes"),
        lambda h: h["centers"].update(n_classes="3"),
        lambda h: h["centers"].update(n_classes=0),
        lambda h: h["centers"].update(mode="learned"),
        lambda h: h["centers"].pop("mode"),
        lambda h: h["extractor"].update(activation="sigmoid"),
        lambda h: h["centers"].update(source_epoch="abc"),
        lambda h: h["centers"].update(source_epoch=1.5),
        lambda h: h["centers"].update(source_epoch=True),
        lambda h: h["centers"].update(source_epoch=-7),
        lambda h: h["centers"].update(source_epoch=[1]),
    ], ids=["extractor_key", "centers_type", "head_type", "head_classes_type", "epoch_type",
            "layer_sizes_type", "layer_sizes_short", "activation_type", "p_norm_type",
            "p_norm_zero", "p_norm_bool", "p_norm_float", "p_norm_two_as_float",
            "p_norm_missing",
            "center_classes_missing", "center_classes_type", "center_classes_zero",
            "center_mode_unknown", "center_mode_missing", "activation_unknown",
            "source_epoch_text", "source_epoch_float", "source_epoch_bool",
            "source_epoch_negative", "source_epoch_list"])
    def test_malformed_header_fields_raise_data_format_error(self, tmp_path, edit):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, edit))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: malformed checkpoint header"):
            load_checkpoint(path)

    def test_a_checkpoint_written_before_the_metric_was_fixed_loads_and_saves_unchanged(
            self, tmp_path):
        path = tmp_path / "earlier.ckpt"
        path.write_bytes(TANH_CHECKPOINT)
        loaded = load_checkpoint(path)
        fx = FeatureExtractor([2, 3, 2], rng=np.random.default_rng(5))
        for a, b in zip(fx.parameters(), loaded.extractor.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(loaded.centers.matrix, np.arange(4.0).reshape(2, 2) / 4)
        assert (loaded.epoch, loaded.centers.source_epoch, loaded.head) == (2, 1, None)
        save_checkpoint(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == TANH_CHECKPOINT

    def test_a_relu_checkpoint_is_refused_in_one_line_that_names_it(self, tmp_path):
        path = tmp_path / "relu.ckpt"
        path.write_bytes(EARLIER_CHECKPOINT)
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: malformed checkpoint header (extractor.activation "
                                   "is 'relu', but every extractor is tanh)")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("at", [0, -1], ids=["first_weight", "last_center"])
    def test_a_non_finite_payload_value_is_refused_in_one_line_that_names_it(
            self, tmp_path, value, at):
        # a NaN weight used to evaluate to a report; an inf center failed without the file's name
        path, blob = self._saved(tmp_path)
        (hlen,) = struct.unpack("<I", blob[4:8])
        values = np.frombuffer(blob, dtype="<f8", offset=8 + hlen).copy()
        values[at] = value
        path.write_bytes(blob[:8 + hlen] + values.astype("<f8").tobytes())
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: checkpoint payload holds non-finite values"

    @pytest.mark.parametrize("edit", [
        lambda h: h["extractor"].update(layer_sizes=[3, 2 ** 21, 2 ** 21, 2]),
        lambda h: h.update(head={"n_classes": 2 ** 40}),
        lambda h: h["extractor"].update(layer_sizes=[3, 5, 2]),  # more than the payload holds
        lambda h: h["extractor"].update(layer_sizes=[3, 3, 2]),  # leaves bytes over
        lambda h: h["centers"].update(n_classes=4),
    ], ids=["huge_hidden", "huge_head", "wider", "narrower", "more_centers"])
    def test_a_topology_the_payload_does_not_hold_is_refused(self, tmp_path, edit):
        # checked against the payload length before any array or module is built
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, edit))
        with pytest.raises(DataFormatError, match="checkpoint payload holds"):
            load_checkpoint(path)

    def test_a_version_1_file_is_refused(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(self._with_header(blob, lambda h: h.update(version=1)))
        with pytest.raises(DataFormatError, match="unsupported checkpoint version 1$"):
            load_checkpoint(path)

    def test_payload_is_the_parameters_then_the_centers_in_f8(self, tmp_path):
        fx = FeatureExtractor([3, 4, 2], rng=np.random.default_rng(5))
        head = LinearHead(2, 3, rng=np.random.default_rng(6))
        centers = np.random.default_rng(7).normal(size=(3, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(extractor=fx, epoch=1, config_fingerprint="x", head=head,
                                         centers=CenterTable(Tensor(centers), mode="computed")))
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        arrays = [p.data for p in fx.parameters() + head.parameters()] + [centers]
        assert blob[8 + hlen:] == b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


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
