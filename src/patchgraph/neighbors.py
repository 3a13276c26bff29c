"""Spatial neighborhood graphs: the clique over a patch and its nearest
same-frame neighbors by 3D location, given by its vertex list alone."""

import numpy as np

DEFAULT_K = 5


def _require_location(patch):
    if patch.loc3d is None:
        raise ValueError("patch %s has no 3D location" % patch.patch_id)
    return patch.loc3d


def knn_neighbors(center, candidates, k=DEFAULT_K):
    """The k candidates nearest to the center by L2 location distance.

    Sorted ascending by distance, ties broken by ascending patch id; returns
    fewer than k when the frame offers fewer candidates.
    """
    c = _require_location(center)
    ranked = sorted(
        ((float(np.linalg.norm(_require_location(p) - c)), p.patch_id, p)
         for p in candidates),
        key=lambda t: (t[0], t[1]))
    return [p for _, _, p in ranked[:k]]


def graph_for_patch(patch, frame, k=DEFAULT_K):
    """Vertices of one patch's clique within its frame: the patch first,
    then its neighbors in knn order."""
    others = [p for p in frame.patches if p.patch_id != patch.patch_id]
    return [patch] + knn_neighbors(patch, others, k)
