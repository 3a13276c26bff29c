"""Spatial neighborhood graphs: the clique over a patch and its nearest
same-frame neighbors by 3D location, given by its vertex list alone."""

import numpy as np

from .config import SCHEMA

DEFAULT_K = SCHEMA["model.k"][0]


def knn_neighbors(center, candidates, k=DEFAULT_K):
    """The k candidates nearest to the center by L2 location distance.

    Sorted ascending by distance, ties broken by ascending patch id; returns
    fewer than k when the frame offers fewer candidates.
    """
    return sorted(candidates, key=lambda p: (
        float(np.linalg.norm(p.loc3d - center.loc3d)), p.patch_id))[:k]


def graph_for_patch(patch, frame, k=DEFAULT_K):
    """Vertices of one patch's clique within its frame: the patch first,
    then its neighbors in knn order."""
    others = [p for p in frame.patches if p.patch_id != patch.patch_id]
    return [patch] + knn_neighbors(patch, others, k)
