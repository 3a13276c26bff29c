"""Landmark depth from matched patches in a rectified stereo pair.

The horizontal disparity between a patch's bounding-box centerline in the
left and right images converts to metric depth through Z = fx * B / d.
Patch pairs are accepted when the match score clears a high-confidence
threshold (0.9 by default).
"""

from dataclasses import dataclass

from .config import SCHEMA
from .placerec import score_matrix

STEREO_MATCH_THRESHOLD = SCHEMA["stereo.gamma"][0]


@dataclass
class StereoGeometry:
    fx: float           # focal length, pixels
    baseline: float     # camera separation, meters

    def __post_init__(self):
        if self.fx <= 0.0 or self.baseline <= 0.0:
            raise ValueError("focal length and baseline must be positive")


@dataclass
class DepthEstimate:
    left_id: str
    right_id: str
    score: float
    disparity: float
    valid: bool
    depth: float = None     # meters; None when invalid


def centerline_u(bbox):
    """Horizontal center of a bounding box: mean of its left and right
    sides.  Boxes must be margin-free for the center to sit on the
    projected landmark."""
    u0, _, u1, _ = bbox
    return 0.5 * (u0 + u1)


def stereo_disparity(left_patch, right_patch):
    """Centerline disparity in pixels; non-positive disparity marks the
    pair invalid (parallel rays or a mismatch) rather than raising."""
    d = centerline_u(left_patch.bbox) - centerline_u(right_patch.bbox)
    return d, d > 0.0


def disparity_to_depth(disparity, geometry):
    if disparity <= 0.0:
        raise ValueError("depth undefined for disparity %r <= 0" % disparity)
    return geometry.fx * geometry.baseline / disparity


def depth_noise_bound(geometry, disparity, pixel_error=0.5):
    """Worst-case depth error when the disparity is off by at most
    ``pixel_error`` px: fx*B*e / (d*(d-e)), the exact error at d-e."""
    if disparity <= pixel_error:
        raise ValueError("bound undefined when disparity %r <= error %r"
                         % (disparity, pixel_error))
    return (geometry.fx * geometry.baseline * pixel_error
            / (disparity * (disparity - pixel_error)))


def estimate_depths(left_frame, right_frame, model, geometry,
                    threshold=STEREO_MATCH_THRESHOLD, scorer=None):
    """Match every left patch to its best-scoring right patch; pairs above
    the threshold yield depth estimates.  Frames must be rectified."""
    scores = score_matrix(left_frame, right_frame, model, scorer=scorer)
    out = []
    for i, left in enumerate(left_frame.patches):
        j = int(scores[i].argmax())
        s = float(scores[i, j])
        if s <= threshold:
            continue
        right = right_frame.patches[j]
        disparity, valid = stereo_disparity(left, right)
        depth = disparity_to_depth(disparity, geometry) if valid else None
        out.append(DepthEstimate(left_id=left.patch_id,
                                 right_id=right.patch_id, score=s,
                                 disparity=disparity, valid=valid,
                                 depth=depth))
    return out
