"""Spatial neighborhood graphs: the clique over a patch and its nearest
same-frame neighbors by 3D location."""

from dataclasses import dataclass

import numpy as np

DEFAULT_K = 5


@dataclass
class NeighborhoodGraph:
    vertices: list            # Patch objects; the center is vertices[center_index]
    center_index: int
    adjacency: np.ndarray     # binary, symmetric, zero diagonal
    k_used: int

    def __post_init__(self):
        n = len(self.vertices)
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.shape != (n, n):
            raise ValueError("adjacency shape %r does not match %d vertices"
                             % (a.shape, n))
        if not (a == a.T).all() or a.diagonal().any():
            raise ValueError("adjacency must be symmetric with zero diagonal")
        if not (0 <= self.center_index < n):
            raise ValueError("center index out of range")
        self.adjacency = a

    @property
    def size(self):
        return len(self.vertices)


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


def build_clique(center, neighbors):
    """Complete unweighted graph over the center and its neighbors.

    The center is vertex 0; neighbors keep their knn order after it.
    """
    vertices = [center] + list(neighbors)
    n = len(vertices)
    adjacency = np.ones((n, n)) - np.eye(n)
    return NeighborhoodGraph(vertices=vertices, center_index=0,
                             adjacency=adjacency, k_used=len(neighbors))


def graph_for_patch(patch, frame, k=DEFAULT_K):
    """Neighborhood graph of one patch within its frame."""
    others = [p for p in frame.patches if p.patch_id != patch.patch_id]
    return build_clique(patch, knn_neighbors(patch, others, k))
