"""Patch descriptors: 8-bit grayscale pixels (H, W) to R^n.

Two interchangeable variants sit behind one dispatch:

* ``fixed_hist``: a 16-bin intensity histogram and an 8-bin
  gradient-orientation histogram through a seeded random projection.
  Deterministic, never trained; fast enough to precompute for a dataset.
* ``tiny_conv``: a three-block strided convolution stack with a linear head,
  built on the autodiff engine so gradients reach every weight.

Descriptor length ``n`` is shared by both variants and by everything
downstream (graph layers, the bilinear scorer).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .seeds import rng_for

INTENSITY_BINS = 16
ORIENTATION_BINS = 8


@dataclass
class FeaturizerParams:
    variant: str
    n: int
    tensors: dict  # name -> Tensor

    def trainable(self):
        return [t for t in self.tensors.values() if t.requires_grad]

    def named_tensors(self):
        return {"featurizer." + k: v for k, v in self.tensors.items()}


def _conv_channels(n):
    return max(4, n // 4), max(4, n // 2), n


def init_featurizer(variant, n, seed):
    """Fresh parameters; layer weights uniform in +-1/sqrt(fan_in)."""
    rng = rng_for(seed, "featurizer")
    if variant == "fixed_hist":
        d = INTENSITY_BINS + ORIENTATION_BINS
        proj = rng.standard_normal((n, d)) / math.sqrt(d)
        return FeaturizerParams(variant, n, {"projection": ad.constant(proj)})
    c1, c2, c3 = _conv_channels(n)
    tensors = {}

    def unif(name, shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        tensors[name] = ad.parameter(rng.uniform(-bound, bound, size=shape))

    unif("conv1.w", (c1, 1, 3, 3), 9)
    unif("conv1.b", (c1,), 9)
    unif("conv2.w", (c2, c1, 3, 3), c1 * 9)
    unif("conv2.b", (c2,), c1 * 9)
    unif("conv3.w", (c3, c2, 3, 3), c2 * 9)
    unif("conv3.b", (c3,), c2 * 9)
    unif("head.w", (n, c3), c3)
    unif("head.b", (n,), c3)
    return FeaturizerParams(variant, n, tensors)


def _histogram_descriptor(pixels):
    """16-bin intensity counts + 8-bin gradient-orientation counts of uint8
    ``pixels``, concatenated and L2-normalized.

    Orientations are unweighted votes; a flat patch has zero gradient
    everywhere, atan2(0, 0) = 0, so all its orientation mass lands in the
    bin containing angle zero.
    """
    img = pixels.astype(np.float64)
    # bins of 256 / 16 levels; scaling an integer level by a power of two
    # is exact, so truncation gives its bin
    ih = np.bincount((img * (INTENSITY_BINS / 256.0)).astype(int).reshape(-1),
                     minlength=INTENSITY_BINS)
    gy, gx = np.gradient(img)
    theta = np.arctan2(gy, gx)
    idx = np.clip(((theta + np.pi) / (2.0 * np.pi) * ORIENTATION_BINS)
                  .astype(int), 0, ORIENTATION_BINS - 1)
    oh = np.bincount(idx.reshape(-1), minlength=ORIENTATION_BINS)
    desc = np.concatenate([ih, oh]).astype(np.float64)
    return desc / np.linalg.norm(desc)


def extract_fixed(patch, params):
    """Histogram descriptor through the seeded projection; constant output."""
    proj = params.tensors["projection"].data
    desc = _histogram_descriptor(patch.pixels)
    return ad.constant(proj @ desc)


def extract_conv(patch, params):
    """Conv stack -> global average pool -> linear head, differentiable."""
    x = ad.constant(patch.pixels[None] / 255.0)
    for block in ("conv1", "conv2", "conv3"):
        w = params.tensors[block + ".w"]
        x = ad.relu(ad.conv2d(x, w, params.tensors[block + ".b"],
                              stride=2, padding=1))
    c = x.data.shape[0]
    pooled = ad.tmean(ad.reshape(x, (c, -1)), axis=1)
    return params.tensors["head.w"] @ pooled + params.tensors["head.b"]


def featurize(patch, params):
    """Descriptor for one patch.

    A patch carrying a precomputed ``feature`` array bypasses pixels
    entirely (used by synthetic feature-space datasets); otherwise the
    configured variant runs.
    """
    if patch.feature is not None:
        vec = np.asarray(patch.feature, dtype=np.float64)
        if vec.shape != (params.n,):
            raise ValueError("precomputed feature of patch %s has shape %r, "
                             "expected (%d,)" % (patch.patch_id, vec.shape, params.n))
        return ad.constant(vec)
    if params.variant == "fixed_hist":
        return extract_fixed(patch, params)
    return extract_conv(patch, params)
