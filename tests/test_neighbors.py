"""Tests for neighbor selection and clique vertex lists."""

import numpy as np
import pytest

from patchgraph import neighbors as nb
from patchgraph.scene import Patch


def _patch(pid, loc):
    return Patch(patch_id=pid, frame_id="f0", bbox=(0, 0, 4, 4),
                 pixels=np.zeros((4, 4), dtype=np.uint8),
                 loc3d=np.asarray(loc, dtype=np.float64))


def test_knn_empty_candidates():
    center = _patch("f0/p0", [0, 0, 10])
    assert nb.knn_neighbors(center, [], k=5) == []


def test_knn_orders_by_distance():
    center = _patch("f0/p0", [0, 0, 0])
    cands = [_patch("f0/p3", [3, 0, 0]),
             _patch("f0/p1", [1, 0, 0]),
             _patch("f0/p2", [2, 0, 0])]
    got = nb.knn_neighbors(center, cands, k=2)
    assert [p.patch_id for p in got] == ["f0/p1", "f0/p2"]


def test_knn_tie_broken_by_patch_id():
    center = _patch("f0/p0", [0, 0, 0])
    cands = [_patch("f0/pc", [1, 0, 0]),
             _patch("f0/pa", [0, 1, 0]),
             _patch("f0/pb", [0, 0, 1])]
    got = nb.knn_neighbors(center, cands, k=2)
    assert [p.patch_id for p in got] == ["f0/pa", "f0/pb"]


def test_knn_fewer_candidates_than_k():
    center = _patch("f0/p0", [0, 0, 0])
    cands = [_patch("f0/p1", [1, 0, 0])]
    assert len(nb.knn_neighbors(center, cands, k=5)) == 1


def test_knn_missing_location_names_patch():
    # a patch without a finite 3D location cannot be built, so every
    # candidate that reaches knn_neighbors has one
    with pytest.raises(ValueError, match="f0/p9"):
        Patch(patch_id="f0/p9", frame_id="f0", bbox=(0, 0, 4, 4),
              pixels=np.zeros((4, 4), dtype=np.uint8), loc3d=None)


def test_knn_deterministic():
    rng = np.random.default_rng(0)
    center = _patch("f0/p0", [0, 0, 0])
    cands = [_patch("f0/p%02d" % i, rng.normal(size=3)) for i in range(1, 12)]
    a = [p.patch_id for p in nb.knn_neighbors(center, cands, k=5)]
    b = [p.patch_id for p in nb.knn_neighbors(center, list(cands), k=5)]
    assert a == b


def test_knn_stable_under_small_perturbation():
    # distances 1, 2, 3, 4: the gap is 1, so noise below 0.5 on any single
    # coordinate keeps the neighbor set intact
    center = _patch("f0/p0", [0, 0, 0])
    cands = [_patch("f0/p%d" % i, [float(i), 0, 0]) for i in range(1, 5)]
    base = {p.patch_id for p in nb.knn_neighbors(center, cands, k=2)}
    rng = np.random.default_rng(4)
    for _ in range(50):
        moved = [_patch(p.patch_id, p.loc3d + rng.uniform(-0.2, 0.2, 3))
                 for p in cands]
        again = {p.patch_id for p in nb.knn_neighbors(center, moved, k=2)}
        assert again == base


def _frame(patches):
    from patchgraph.scene import Frame, standard_camera
    return Frame(frame_id="f0", camera=standard_camera((0, 0, 0)),
                 position=np.zeros(3), patches=patches)


def test_clique_singleton():
    center = _patch("f0/p0", [0, 0, 0])
    g = nb.graph_for_patch(center, _frame([center]))
    assert len(g) == 1
    assert g == [center]


def test_clique_three_neighbors():
    # listed out of distance order: the clique is the center, then knn order
    center = _patch("f0/p0", [0, 0, 0])
    neigh = [_patch("f0/p%d" % i, [i, 0, 0]) for i in (3, 1, 2)]
    g = nb.graph_for_patch(center, _frame(neigh + [center]), k=5)
    assert len(g) == 4
    assert g[0] is center
    assert [v.patch_id for v in g] == ["f0/p0", "f0/p1", "f0/p2", "f0/p3"]


def test_graph_for_patch_uses_frame_neighbors():
    patches = [_patch("f0/p%d" % i, [i * 1.0, 0, 10]) for i in range(6)]
    g = nb.graph_for_patch(patches[0], _frame(patches), k=3)
    assert len(g) == 4
    assert [v.patch_id for v in g] == ["f0/p0", "f0/p1", "f0/p2", "f0/p3"]
