import math

import numpy as np
import pytest

import patchgraph.autodiff as ad
from patchgraph.matching import ModelConfig, init_model
from patchgraph.scene import (
    Landmark3D,
    NoiseConfig,
    render_views,
    standard_camera,
)
from patchgraph.stereo import (
    DepthEstimate,
    StereoGeometry,
    centerline_u,
    depth_noise_bound,
    disparity_to_depth,
    estimate_depths,
    stereo_disparity,
)

BASELINE = 0.54


def stereo_frames(seed=0, landmarks=None):
    """Rectified pair: two cameras separated along x, same orientation."""
    if landmarks is None:
        rng = np.random.default_rng(seed)
        landmarks = []
        classes = ("traffic_light", "traffic_sign", "pole", "window")
        for i in range(8):
            landmarks.append(Landmark3D(
                landmark_id="lm%03d" % i,
                landmark_class=classes[i % 4],
                position=np.array([rng.uniform(-4, 4), rng.uniform(0, 3),
                                   rng.uniform(8, 25)]),
                appearance_seed=i))
    cam_l = standard_camera(position=(0.0, 0.0, 0.0))
    cam_r = standard_camera(position=(BASELINE, 0.0, 0.0))
    quiet = NoiseConfig(sigma_loc=0.0, occlusion_prob=0.0, sigma_pixel=0.0)
    left, right = render_views(landmarks, cam_l, cam_r, quiet, seed=seed)
    return left, right, {lm.landmark_id: lm for lm in landmarks}


class TestGeometryTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            StereoGeometry(fx=0.0, baseline=0.5)
        with pytest.raises(ValueError):
            StereoGeometry(fx=700.0, baseline=-1.0)

    def test_centerline(self):
        assert centerline_u((700.0, 10.0, 720.0, 30.0)) == 710.0


class FakePatch:
    def __init__(self, bbox):
        self.bbox = bbox
        self.patch_id = "p"


class TestDisparity:
    def test_known_centers(self):
        left = FakePatch((700.0, 0.0, 720.0, 10.0))    # center 710
        right = FakePatch((630.0, 0.0, 650.0, 10.0))   # center 640
        d, valid = stereo_disparity(left, right)
        assert d == 70.0
        assert valid

    def test_identical_boxes_invalid(self):
        p = FakePatch((10.0, 0.0, 20.0, 10.0))
        d, valid = stereo_disparity(p, FakePatch(p.bbox))
        assert d == 0.0
        assert not valid

    def test_negative_disparity_invalid(self):
        left = FakePatch((10.0, 0.0, 20.0, 10.0))
        right = FakePatch((30.0, 0.0, 40.0, 10.0))
        _, valid = stereo_disparity(left, right)
        assert not valid


class TestDepthFormula:
    def test_hand_value(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        assert disparity_to_depth(70.0, geom) == 5.0

    def test_inverse_law(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        assert disparity_to_depth(140.0, geom) == \
            disparity_to_depth(70.0, geom) / 2.0

    def test_nonpositive_disparity_rejected(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        with pytest.raises(ValueError):
            disparity_to_depth(0.0, geom)
        with pytest.raises(ValueError):
            disparity_to_depth(-3.0, geom)


class TestNoiseBound:
    def test_formula_value(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        expected = 700.0 * 0.5 * 0.5 / (70.0 * 69.5)
        assert abs(depth_noise_bound(geom, 70.0) - expected) < 1e-15

    def test_bound_is_exact_worst_case(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        d = 40.0
        z = disparity_to_depth(d, geom)
        worst = abs(disparity_to_depth(d - 0.5, geom) - z)
        assert abs(depth_noise_bound(geom, d) - worst) < 1e-12

    def test_small_disparity_rejected(self):
        geom = StereoGeometry(fx=700.0, baseline=0.5)
        with pytest.raises(ValueError):
            depth_noise_bound(geom, 0.5)


class TestSyntheticStereo:
    def match_by_landmark(self, left, right):
        right_by_lm = {p.landmark_id: p for p in right.patches}
        return [(lp, right_by_lm[lp.landmark_id]) for lp in left.patches
                if lp.landmark_id in right_by_lm]

    def test_disparity_matches_projection_formula(self):
        left, right, landmarks = stereo_frames(seed=1)
        pairs = self.match_by_landmark(left, right)
        assert len(pairs) >= 5
        for lp, rp in pairs:
            depth_true = landmarks[lp.landmark_id].position[2]
            expected = 700.0 * BASELINE / depth_true
            d, valid = stereo_disparity(lp, rp)
            assert valid
            assert abs(d - expected) < 0.5

    def test_exact_depth_recovery(self):
        left, right, landmarks = stereo_frames(seed=2)
        geom = StereoGeometry(fx=700.0, baseline=BASELINE)
        for lp, rp in self.match_by_landmark(left, right):
            d, valid = stereo_disparity(lp, rp)
            assert valid
            depth = disparity_to_depth(d, geom)
            assert abs(depth - landmarks[lp.landmark_id].position[2]) < 1e-9

    def test_noisy_disparity_error_within_bound(self):
        left, right, landmarks = stereo_frames(seed=3)
        geom = StereoGeometry(fx=700.0, baseline=BASELINE)
        rng = np.random.default_rng(33)
        for lp, rp in self.match_by_landmark(left, right):
            d, _ = stereo_disparity(lp, rp)
            z = disparity_to_depth(d, geom)
            for _ in range(20):
                noisy = d + rng.uniform(-0.5, 0.5)
                err = abs(disparity_to_depth(noisy, geom) - z)
                assert err <= depth_noise_bound(geom, d) + 1e-12


class LandmarkScorer:
    """Stub: same landmark scores high, otherwise low.  A slot's rows hold
    its landmark id's index, or NaN, which equals nothing, without one."""

    def operands(self, index, slots):
        ids = [patch.landmark_id for patch, _ in index.patches]
        rows = ad.constant([[np.nan if ids[s] is None else ids.index(ids[s])]
                            for s in slots])
        return rows, rows

    def pair(self, x, y):
        return ad.constant(np.where(x.data[..., 0] == y.data[..., 0],
                                    0.99, 0.05))


class TestEstimateDepths:
    def test_end_to_end_with_oracle_matching(self):
        left, right, landmarks = stereo_frames(seed=4)
        geom = StereoGeometry(fx=700.0, baseline=BASELINE)
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        estimates = estimate_depths(left, right, model, geom,
                                    scorer=LandmarkScorer())
        matched_lms = {p.landmark_id for p in left.patches} & \
            {p.landmark_id for p in right.patches}
        assert len(estimates) == len(matched_lms)
        right_by_id = {p.patch_id: p for p in right.patches}
        for est in estimates:
            assert isinstance(est, DepthEstimate)
            assert est.valid
            lm = right_by_id[est.right_id].landmark_id
            assert abs(est.depth - landmarks[lm].position[2]) < 1e-9

    def test_threshold_filters_weak_matches(self):
        left, right, _ = stereo_frames(seed=5)
        geom = StereoGeometry(fx=700.0, baseline=BASELINE)
        model = init_model(ModelConfig(n=4, k=2), seed=1)
        # untrained model scores hover near 0.5, under the 0.9 threshold
        estimates = estimate_depths(left, right, model, geom)
        assert estimates == []

    def test_math_consistency_of_estimates(self):
        left, right, _ = stereo_frames(seed=6)
        geom = StereoGeometry(fx=700.0, baseline=BASELINE)
        model = init_model(ModelConfig(n=4, k=2), seed=2)
        for est in estimate_depths(left, right, model, geom,
                                   scorer=LandmarkScorer()):
            assert est.depth == disparity_to_depth(est.disparity, geom)
            assert math.isfinite(est.depth)
