import numpy as np
import pytest

import patchgraph.autodiff as ad
from patchgraph.features import (
    INTENSITY_BINS,
    ORIENTATION_BINS,
    _histogram_descriptor,
    extract_conv,
    extract_fixed,
    featurize,
    init_featurizer,
)
from patchgraph.matching import ModelConfig
from patchgraph.scene import Patch


def make_patch(pixels, feature=None):
    pixels = np.asarray(pixels)
    return Patch("f0/p000", "f0", (0.0, 0.0, float(pixels.shape[1]),
                                   float(pixels.shape[0])),
                 pixels, loc3d=np.zeros(3), feature=feature)


def random_patch(rng, side=32):
    return make_patch(rng.integers(0, 256, size=(side, side), dtype=np.uint8))


class TestHistogramDescriptor:
    def test_constant_patch_single_orientation_bin(self):
        # flat patch: zero gradient everywhere, atan2(0,0)=0 -> the bin
        # holding angle 0, which is bin 4 of 8 over [-pi, pi)
        desc = _histogram_descriptor(np.full((32, 32), 128, dtype=np.uint8))
        orient = desc[INTENSITY_BINS:INTENSITY_BINS + ORIENTATION_BINS]
        assert np.count_nonzero(orient) == 1
        assert orient[4] > 0

    def test_constant_patch_single_intensity_bin(self):
        desc = _histogram_descriptor(np.full((32, 32), 128, dtype=np.uint8))
        inten = desc[:INTENSITY_BINS]
        assert np.count_nonzero(inten) == 1
        assert inten[128 // 16] > 0

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            desc = _histogram_descriptor(
                rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
            assert abs(np.linalg.norm(desc) - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (5, 3), (32, 32),
                                       (17, 40)])
    def test_intensity_bins_match_float_histogram(self, shape):
        # the scale-and-count route against np.histogram of a float copy
        # over [0, 256); every pixel votes once in each half, so the
        # intensity counts are the half's share of the pixel count
        rng = np.random.default_rng(sum(shape))
        for pixels in (rng.integers(0, 256, size=shape, dtype=np.uint8),
                       np.full(shape, 255, dtype=np.uint8),
                       np.full(shape, 16, dtype=np.uint8)):
            counts, _ = np.histogram(pixels.astype(np.float64),
                                     bins=INTENSITY_BINS, range=(0.0, 256.0))
            inten = _histogram_descriptor(pixels)[:INTENSITY_BINS]
            assert np.array_equal(
                np.rint(inten * pixels.size / inten.sum()), counts)


class TestFixedVariant:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        patch = random_patch(rng)
        a = extract_fixed(patch, init_featurizer("fixed_hist", 32, 11))
        b = extract_fixed(patch, init_featurizer("fixed_hist", 32, 11))
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_projection(self):
        rng = np.random.default_rng(7)
        patch = random_patch(rng)
        a = extract_fixed(patch, init_featurizer("fixed_hist", 32, 11))
        b = extract_fixed(patch, init_featurizer("fixed_hist", 32, 12))
        assert not np.allclose(a.data, b.data)

    def test_single_pixel_difference_changes_vector(self):
        base = np.full((32, 32), 40, dtype=np.uint8)
        bumped = base.copy()
        bumped[5, 5] = 250
        params = init_featurizer("fixed_hist", 32, 3)
        va = extract_fixed(make_patch(base), params)
        vb = extract_fixed(make_patch(bumped), params)
        assert not np.allclose(va.data, vb.data)

    def test_output_length(self):
        rng = np.random.default_rng(2)
        for n in (4, 16, 32):
            params = init_featurizer("fixed_hist", n, 0)
            vec = extract_fixed(random_patch(rng), params)
            assert vec.data.shape == (n,)
            assert not vec.requires_grad

    def test_no_nan_on_random_patches(self):
        rng = np.random.default_rng(3)
        params = init_featurizer("fixed_hist", 32, 0)
        for _ in range(50):
            vec = extract_fixed(random_patch(rng, side=int(rng.integers(4, 40))),
                                params)
            assert np.all(np.isfinite(vec.data))


class TestConvVariant:
    def test_zero_weights_give_zero_vector(self):
        params = init_featurizer("tiny_conv", 16, 0)
        for t in params.tensors.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(5)
        out = extract_conv(random_patch(rng), params)
        assert np.array_equal(out.data, np.zeros(16))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        patch = random_patch(rng)
        a = extract_conv(patch, init_featurizer("tiny_conv", 8, 21))
        b = extract_conv(patch, init_featurizer("tiny_conv", 8, 21))
        assert np.array_equal(a.data, b.data)

    def test_output_length_and_grad_flag(self):
        rng = np.random.default_rng(8)
        for n in (4, 8, 32):
            out = extract_conv(random_patch(rng, side=16),
                               init_featurizer("tiny_conv", n, 1))
            assert out.data.shape == (n,)
            assert out.requires_grad

    def test_small_input_shapes(self):
        rng = np.random.default_rng(9)
        params = init_featurizer("tiny_conv", 4, 2)
        for side in (8, 11, 16, 32):
            out = extract_conv(random_patch(rng, side=side), params)
            assert out.data.shape == (4,)
            assert np.all(np.isfinite(out.data))

    def test_gradients_reach_all_weights(self):
        rng = np.random.default_rng(10)
        params = init_featurizer("tiny_conv", 4, 3)
        patch = random_patch(rng, side=8)
        loss = ad.tsum(extract_conv(patch, params))
        grads = ad.gradients(loss, params.trainable())
        # relu can zero a map; bias gradients at minimum must flow
        assert any(np.any(g != 0.0) for g in grads)
        assert len(grads) == len(params.trainable())

    def test_grad_check(self):
        rng = np.random.default_rng(11)
        params = init_featurizer("tiny_conv", 4, 4)
        patch = random_patch(rng, side=8)

        def f():
            return ad.tsum(extract_conv(patch, params))

        worst = ad.grad_check(f, params.trainable())
        assert worst < 1e-4

    def test_no_nan_on_random_patches(self):
        rng = np.random.default_rng(12)
        params = init_featurizer("tiny_conv", 8, 5)
        for _ in range(20):
            out = extract_conv(random_patch(rng, side=int(rng.integers(8, 36))),
                               params)
            assert np.all(np.isfinite(out.data))


class TestDispatch:
    def test_featurize_uses_variant(self):
        rng = np.random.default_rng(13)
        patch = random_patch(rng)
        fixed = init_featurizer("fixed_hist", 16, 0)
        conv = init_featurizer("tiny_conv", 16, 0)
        assert np.array_equal(featurize(patch, fixed).data,
                              extract_fixed(patch, fixed).data)
        assert np.array_equal(featurize(patch, conv).data,
                              extract_conv(patch, conv).data)

    def test_precomputed_feature_bypasses_pixels(self):
        vec = np.arange(16, dtype=np.float64)
        patch = make_patch(np.zeros((4, 4), dtype=np.uint8), feature=vec)
        params = init_featurizer("tiny_conv", 16, 0)
        out = featurize(patch, params)
        assert np.array_equal(out.data, vec)
        assert not out.requires_grad

    def test_precomputed_feature_length_checked(self):
        patch = make_patch(np.zeros((4, 4), dtype=np.uint8),
                           feature=np.ones(5))
        with pytest.raises(ValueError):
            featurize(patch, init_featurizer("fixed_hist", 16, 0))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(n=32, featurizer="resnet")

    def test_checkpoint_namespace(self):
        params = init_featurizer("tiny_conv", 8, 0)
        named = params.named_tensors()
        assert set(named) == {"featurizer." + k for k in params.tensors}
