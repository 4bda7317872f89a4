"""Tests for the residual (shortcut) support."""

import numpy as np
import pytest

from repro.bnn.layers import BatchNorm2d, BinaryConv2d, RSign
from repro.bnn.reactnet import build_small_bnn
from repro.bnn.residual import (
    ResidualBranch,
    average_pool_2x2,
    duplicate_channels,
)
from repro.bnn.datasets import make_blob_dataset
from repro.bnn.training import train_model


class TestShortcutOps:
    def test_average_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pooled = average_pool_2x2(x)
        assert pooled.shape == (1, 1, 2, 2)
        assert pooled[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_average_pool_odd_size_rejected(self):
        with pytest.raises(ValueError):
            average_pool_2x2(np.zeros((1, 1, 5, 4), dtype=np.float32))

    def test_duplicate_channels(self):
        x = np.ones((1, 2, 3, 3), dtype=np.float32)
        out = duplicate_channels(x, 3)
        assert out.shape == (1, 6, 3, 3)

    def test_duplicate_factor_one_is_identity(self):
        x = np.random.default_rng(0).standard_normal((1, 2, 2, 2)).astype(
            np.float32
        )
        assert np.array_equal(duplicate_channels(x, 1), x)

    def test_duplicate_invalid_factor(self):
        with pytest.raises(ValueError):
            duplicate_channels(np.zeros((1, 1, 2, 2), dtype=np.float32), 0)


class TestResidualBranch:
    def _branch(self, in_ch=4, out_ch=4, stride=1, rng=None):
        rng = rng or np.random.default_rng(0)
        body = [
            RSign(in_ch),
            BinaryConv2d(in_ch, out_ch, stride=stride, rng=rng),
            BatchNorm2d(out_ch),
        ]
        return ResidualBranch(body, in_ch, out_ch, stride)

    def test_identity_shortcut_adds_input(self, rng):
        branch = self._branch()
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        out = branch.forward(x)
        body_only = x
        for layer in branch.body:
            body_only = layer.forward(body_only)
        assert np.allclose(out, body_only + x, atol=1e-5)

    def test_stride_two_pools_shortcut(self, rng):
        branch = self._branch(stride=2)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        assert branch.forward(x).shape == (1, 4, 4, 4)

    def test_channel_expansion_duplicates(self, rng):
        branch = self._branch(in_ch=4, out_ch=8)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        assert branch.forward(x).shape == (1, 8, 8, 8)

    def test_non_multiple_channels_rejected(self):
        with pytest.raises(ValueError):
            self._branch(in_ch=4, out_ch=6)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            self._branch(stride=3)

    def test_backward_includes_shortcut_gradient(self, rng):
        branch = self._branch()
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        branch.forward(x)
        grad = branch.backward(np.ones((1, 4, 8, 8), dtype=np.float32))
        # shortcut alone contributes ones; body adds more
        assert grad.shape == x.shape
        assert np.abs(grad).sum() > 0

    def test_identity_gradient_check(self, rng):
        """With an empty-ish body contribution, grad ~ shortcut grad."""
        branch = self._branch(stride=2)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        branch.forward(x)
        grad = branch.backward(np.ones((1, 4, 4, 4), dtype=np.float32))
        # every input position receives at least the pooled share (1/4)
        assert grad.shape == x.shape

    def test_num_params_counts_body(self):
        branch = self._branch()
        assert branch.num_params == sum(l.num_params for l in branch.body)

    def test_storage_bits_counts_body(self):
        branch = self._branch()
        assert branch.storage_bits() == sum(
            l.storage_bits() for l in branch.body
        )

    def test_train_eval_propagates(self):
        branch = self._branch()
        branch.eval()
        assert all(not l.training for l in branch.body)
        branch.train()
        assert all(l.training for l in branch.body)


class TestResidualModel:
    def test_flat_layers_sees_inner_convs(self):
        model = build_small_bnn(channels=(8, 16), residual=True)
        assert len(model.binary_conv_layers(3)) == 2
        assert len(model.binary_conv_layers(1)) == 2

    def test_named_params_unique_with_residual(self):
        model = build_small_bnn(channels=(8,), residual=True)
        names = [name for name, _, _ in model.named_params()]
        assert len(names) == len(set(names))
        assert any("BinaryConv2d" in name for name in names)

    def test_forward_shapes(self, rng):
        model = build_small_bnn(channels=(8, 16), residual=True)
        x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        assert model.forward(x).shape == (2, 4)

    def test_residual_model_trains(self):
        ds = make_blob_dataset(seed=31)
        model = build_small_bnn(
            in_channels=1, num_classes=ds.num_classes, image_size=8,
            channels=(8,), seed=31, residual=True,
        )
        report = train_model(model, ds, epochs=8, seed=31)
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert report.test_accuracy > 1.0 / ds.num_classes

    def test_residual_kernels_compress_like_plain(self, rng):
        """Compression only sees kernel bits — wrapper must be transparent."""
        from repro.core.pipeline import CompressionPipeline

        model = build_small_bnn(channels=(8, 16), residual=True)
        kernels = model.binary_kernel_bits(3)
        result = CompressionPipeline().compress_block(kernels)
        decoded = result.decode_kernels()
        for original, roundtrip in zip(kernels, decoded):
            assert np.array_equal(original, roundtrip)
