"""Synthetic street scenes and dataset ingestion.

The generator places class-labeled landmarks in a 3D box, renders them into
two pinhole camera views as small grayscale patches with procedural
class-dependent texture, and derives match labels from 3D distances.  The
ingestion path reads the same manifest format back from disk, so externally
prepared datasets flow through identical code.

Conventions: world axes are x lateral, y vertical, z forward (depth);
cameras keep the world axes and look along +z.
"""

import csv
import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import SCHEMA
from .seeds import rng_for

# each landmark class and the synth.* config key that counts it
CLASS_COUNT_KEYS = {"traffic_light": "synth.lights",
                    "traffic_sign": "synth.signs",
                    "pole": "synth.poles", "window": "synth.windows"}
LANDMARK_CLASSES = tuple(CLASS_COUNT_KEYS)

# physical extent (width, height) in meters used to size bounding boxes
_CLASS_SIZE = {
    "traffic_light": (0.35, 0.95),
    "traffic_sign": (0.6, 0.6),
    "pole": (0.2, 2.4),
    "window": (1.1, 1.4),
}

PATCH_SIDE = 32  # rendered patches are PATCH_SIDE x PATCH_SIDE grayscale


class BehindCameraError(ValueError):
    """Raised when a point with camera-frame depth <= 0 is projected."""


class GenerationError(RuntimeError):
    """Raised when scene constraints cannot be satisfied."""


@dataclass
class Landmark3D:
    landmark_id: str
    landmark_class: str
    position: np.ndarray  # world, meters
    appearance_seed: int

    def __post_init__(self):
        if self.landmark_class not in LANDMARK_CLASSES:
            raise ValueError("unknown landmark class %r" % self.landmark_class)
        self.position = np.asarray(self.position, dtype=np.float64)


@dataclass
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    position: np.ndarray = None     # camera center in world coordinates

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError("principal point outside the image")
        if self.position is None:
            self.position = np.zeros(3)
        self.position = np.asarray(self.position, dtype=np.float64)

    def world_to_camera(self, point):
        """Camera axes are the world axes: the camera looks along +z."""
        return np.asarray(point, dtype=np.float64) - self.position


def _point(value, what):
    """``value`` as a finite float64 3-vector, else ValueError."""
    try:
        point = np.asarray(value, dtype=np.float64)
        if point.shape == (3,) and np.isfinite(point).all():
            return point
    except (TypeError, ValueError):
        pass
    raise ValueError("%s %r is not a finite 3-vector" % (what, value))


@dataclass
class Patch:
    patch_id: str
    frame_id: str
    bbox: tuple                     # (u0, v0, u1, v1), pixels, floats
    pixels: np.ndarray              # 8-bit grayscale block, HxW
    loc3d: np.ndarray               # estimated 3D location, meters
    landmark_id: str = None
    feature: np.ndarray = None      # optional precomputed descriptor bypass

    def __post_init__(self):
        if not isinstance(self.patch_id, str):
            raise TypeError("patch id %r is not a string" % (self.patch_id,))
        try:
            bbox = tuple(float(b) for b in self.bbox)
        except (TypeError, ValueError):
            bbox = ()
        if len(bbox) != 4 or not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
            raise ValueError("patch %s: degenerate bbox %r"
                             % (self.patch_id, self.bbox))
        self.bbox = bbox
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        # the histogram descriptor's gradients need 2 pixels along each axis
        if self.pixels.ndim != 2 or min(self.pixels.shape) < 2:
            raise ValueError("patch %s: pixels of shape %r are not an HxW "
                             "block of at least 2x2"
                             % (self.patch_id, self.pixels.shape))
        self.loc3d = _point(self.loc3d, "patch %s: loc3d" % self.patch_id)


@dataclass
class Frame:
    frame_id: str
    camera: CameraModel
    position: np.ndarray            # global camera position, meters
    patches: list

    def __post_init__(self):
        if not isinstance(self.frame_id, str):
            raise TypeError("frame id %r is not a string" % (self.frame_id,))
        self.position = _point(self.position,
                               "frame %s: position" % self.frame_id)
        for p in self.patches:
            if p.frame_id != self.frame_id:
                raise ValueError("patch %s carries frame id %r, expected %r"
                                 % (p.patch_id, p.frame_id, self.frame_id))


@dataclass
class PairEntry:
    patch_a: str
    patch_b: str
    label: int  # 1 matched, 0 unmatched


@dataclass
class SceneConfig:
    class_counts: dict = field(default_factory=lambda: {
        cls: SCHEMA[key][0] for cls, key in CLASS_COUNT_KEYS.items()})
    x_range: tuple = (-12.0, 12.0)
    y_range: tuple = (0.0, 5.0)
    z_range: tuple = (6.0, 28.0)
    min_spacing: float = 1.5
    max_retries: int = 2000


@dataclass
class NoiseConfig:
    """Gaussian noise on each patch's 3D location, the chance that a view
    drops a landmark, and pixel noise added before quantization."""
    sigma_loc: float = SCHEMA["synth.sigma_loc"][0]
    occlusion_prob: float = SCHEMA["synth.occlusion"][0]
    sigma_pixel: float = SCHEMA["synth.sigma_pixel"][0]


def generate_scene(config, seed):
    """Place landmarks uniformly in the configured box, rejecting draws that
    come closer than ``min_spacing`` to an accepted one."""
    rng = rng_for(seed, "scene")
    landmarks = []
    positions = []
    idx = 0
    for cls in LANDMARK_CLASSES:
        count = int(config.class_counts.get(cls, 0))
        for _ in range(count):
            placed = False
            for _ in range(config.max_retries):
                pos = np.array([
                    rng.uniform(*config.x_range),
                    rng.uniform(*config.y_range),
                    rng.uniform(*config.z_range),
                ])
                if all(np.linalg.norm(pos - q) >= config.min_spacing
                       for q in positions):
                    placed = True
                    break
            if not placed:
                raise GenerationError(
                    "could not place landmark %d with spacing %.3g"
                    % (idx, config.min_spacing))
            positions.append(pos)
            landmarks.append(Landmark3D(
                landmark_id="lm%03d" % idx,
                landmark_class=cls,
                position=pos,
                appearance_seed=int(rng.integers(0, 2 ** 31)),
            ))
            idx += 1
    return landmarks


def standard_camera(position, fx=700.0, fy=700.0, cx=640.0, cy=480.0,
                    width=1280, height=960):
    """Camera at ``position`` looking along world +z."""
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                       position=np.asarray(position, float))


def project_to_image(point3d, camera):
    """Pinhole projection.  Returns (u, v, depth, in_view).

    Raises BehindCameraError when the camera-frame depth is <= 0; a
    projection landing outside the image is flagged, not an error.
    """
    pc = camera.world_to_camera(point3d)
    z = pc[2]
    if z <= 0.0:
        raise BehindCameraError("point at camera-frame depth %.6g" % z)
    u = camera.fx * pc[0] / z + camera.cx
    v = camera.fy * pc[1] / z + camera.cy
    in_view = (0.0 <= u < camera.width) and (0.0 <= v < camera.height)
    return u, v, z, in_view


# -- procedural patch textures ----------------------------------------------

def _texture(cls, appearance_seed, view_scale, side=PATCH_SIDE):
    """Class-dependent grayscale texture with small per-landmark variation.

    ``view_scale`` compresses or enlarges the drawn figure with distance, so
    the same landmark does not produce pixel-identical patches from two
    viewpoints.
    """
    rng = np.random.default_rng(appearance_seed)
    jitter = lambda lo, hi: float(rng.uniform(lo, hi))
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, side),
                         np.linspace(0.0, 1.0, side), indexing="ij")
    img = np.full((side, side), 60.0 + jitter(-8, 8))
    s = float(np.clip(view_scale, 0.6, 1.6))
    cx = 0.5 + jitter(-0.03, 0.03)

    if cls == "traffic_light":
        w = 0.18 * s
        box = (np.abs(xx - cx) < w) & (yy > 0.08) & (yy < 0.92)
        img[box] = 28.0 + jitter(-6, 6)
        for k, level in enumerate((235.0, 150.0, 195.0)):
            cyk = 0.22 + 0.28 * k
            disk = (xx - cx) ** 2 + (yy - cyk) ** 2 < (0.085 * s) ** 2
            img[disk] = level + jitter(-10, 10)
    elif cls == "traffic_sign":
        cy0 = 0.34 + jitter(-0.02, 0.02)
        r = 0.27 * s
        disk = (xx - cx) ** 2 + (yy - cy0) ** 2 < r ** 2
        ring = (np.sqrt((xx - cx) ** 2 + (yy - cy0) ** 2) > r * 0.66) & disk
        img[disk] = 215.0 + jitter(-10, 10)
        img[ring] = 95.0 + jitter(-8, 8)
        stem = (np.abs(xx - cx) < 0.04 * s) & (yy >= cy0 + r)
        img[stem] = 120.0
    elif cls == "pole":
        w = 0.07 * s
        stripe = np.abs(xx - cx) < w
        img[stripe] = 182.0 + jitter(-4, 4)
    elif cls == "window":
        lo, hi = 0.5 - 0.36 * s, 0.5 + 0.36 * s
        inside = (xx > lo) & (xx < hi) & (yy > lo) & (yy < hi)
        border = inside & ((xx < lo + 0.06) | (xx > hi - 0.06)
                           | (yy < lo + 0.06) | (yy > hi - 0.06))
        img[inside] = 95.0 + jitter(-6, 6)
        img[border] = 205.0 + jitter(-8, 8)
        img[inside & (np.abs(xx - 0.5) < 0.025)] = 205.0
        img[inside & (np.abs(yy - 0.5) < 0.025)] = 205.0
    return img


def render_views(scene, camera_a, camera_b, noise, seed, frame_ids=None):
    """Render a landmark list into two camera views.

    Each landmark visible in a view becomes one Patch: procedural texture
    plus pixel noise, a projection-derived bounding box, the true location
    corrupted by Gaussian noise, and the landmark id for ground truth.
    ``frame_ids`` overrides the default ("f0", "f1") naming so frames from
    many renders can share one dataset.
    """
    frames = []
    for cam_idx, camera in enumerate((camera_a, camera_b)):
        frame_id = "f%d" % cam_idx if frame_ids is None else frame_ids[cam_idx]
        rng = rng_for(seed, "render/%d" % cam_idx)
        patches = []
        for lm in scene:
            # one rng draw per landmark regardless of visibility keeps the
            # stream aligned across camera poses
            occlude = rng.uniform() < noise.occlusion_prob
            loc_noise = rng.normal(0.0, noise.sigma_loc, size=3) \
                if noise.sigma_loc > 0 else np.zeros(3)
            pixel_rng_seed = int(rng.integers(0, 2 ** 31))
            try:
                u, v, depth, in_view = project_to_image(lm.position, camera)
            except BehindCameraError:
                continue
            if occlude or not in_view:
                continue
            size_w, size_h = _CLASS_SIZE[lm.landmark_class]
            half_w = 0.5 * camera.fx * size_w / depth
            half_h = 0.5 * camera.fy * size_h / depth
            bbox = (u - half_w, v - half_h, u + half_w, v + half_h)
            img = _texture(lm.landmark_class, lm.appearance_seed, 8.0 / depth)
            if noise.sigma_pixel > 0:
                img = img + np.random.default_rng(pixel_rng_seed).normal(
                    0.0, noise.sigma_pixel, img.shape)
            pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
            patches.append(Patch(
                patch_id="%s/p%03d" % (frame_id, len(patches)),
                frame_id=frame_id,
                bbox=bbox,
                pixels=pixels,
                loc3d=lm.position + loc_noise,
                landmark_id=lm.landmark_id,
            ))
        frames.append(Frame(frame_id=frame_id, camera=camera,
                            position=camera.position.copy(), patches=patches))
    return frames[0], frames[1]


def ground_truth_pairs(frame_a, frame_b,
                       tau_match=SCHEMA["synth.tau_match"][0], max_pairs=None,
                       rng=None):
    """Label every cross-frame patch pair by 3D distance.

    Matched iff the L2 distance between locations is <= tau_match
    (inclusive).  When both patches carry landmark ids, the id equality
    overrides the distance rule, and the pairs where the two rules
    disagree are counted.

    Returns (entries, number of disagreeing pairs).
    """
    entries = []
    disagreements = 0
    for pa in frame_a.patches:
        for pb in frame_b.patches:
            dist = float(np.linalg.norm(pa.loc3d - pb.loc3d))
            label = 1 if dist <= tau_match else 0
            if pa.landmark_id is not None and pb.landmark_id is not None:
                id_label = 1 if pa.landmark_id == pb.landmark_id else 0
                disagreements += id_label != label
                label = id_label
            entries.append(PairEntry(pa.patch_id, pb.patch_id, label))
    if max_pairs is not None and len(entries) > max_pairs:
        if rng is None:
            raise ValueError("subsampling requires an rng")
        keep = rng.choice(len(entries), size=max_pairs, replace=False)
        entries = [entries[i] for i in sorted(keep)]
    return entries, disagreements


# -- PGM ---------------------------------------------------------------------

def write_image(path, pixels):
    """Binary PGM (P5) of HxW grayscale pixels with maxval 255; returns the
    bytes written."""
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("expected HxW 8-bit grayscale pixels")
    data = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]) + arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


# "P5", width, height and maxval, separated by whitespace and "#" comments,
# then exactly one whitespace byte before the pixels
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5%s(\d+)%s(\d+)%s(\d+)\s" % (_SEP, _SEP, _SEP))


def read_image(path):
    """Read a binary PGM (P5) file written by write_image or any standard
    tool.  Raises ValueError for anything else, including an empty, cut-off
    or zero-pixel image."""
    with open(path, "rb") as fh:
        return _decode_image(fh.read())


def _decode_image(data):
    """The pixels of the bytes of a binary PGM (P5) file; see read_image."""
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError("no binary PGM (P5) header")
    w, h, maxval = (int(g) for g in header.groups())
    if maxval != 255:
        raise ValueError("only maxval 255 supported")
    if w < 1 or h < 1:
        raise ValueError("image is %d x %d pixels" % (w, h))
    raw = data[header.end():]
    if len(raw) < w * h:
        raise ValueError("truncated pixel data")
    return np.frombuffer(raw[:w * h], dtype=np.uint8).reshape(h, w).copy()


# -- manifest save / load ----------------------------------------------------

@contextmanager
def staged(*paths):
    """Yield one ``.tmp`` path per target, creating the targets'
    directories.  Every target is replaced by its .tmp only once the whole
    block has succeeded, and no .tmp outlives the block."""
    tmps = [path + ".tmp" for path in paths]
    for folder in {os.path.dirname(path) or "." for path in paths}:
        os.makedirs(folder, exist_ok=True)
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def save_dataset(out_dir, frames, pairs=()):
    """Write frames to ``out_dir``: manifest.jsonl, an images/ directory of
    PGM files, and pairs.csv listing ``pairs`` (PairEntry).  Every file
    replaces its old version only once all of them are complete, so a save
    that fails part-way leaves the old dataset whole."""
    patches = [p for frame in frames for p in frame.patches]
    images = ["images/%s.pgm" % p.patch_id.replace("/", "_") for p in patches]
    paths = [os.path.join(out_dir, name)
             for name in ["manifest.jsonl", "pairs.csv"] + images]
    with staged(*paths) as (manifest_tmp, pairs_tmp, *image_tmps):
        records = iter([
            (rel, hashlib.sha256(write_image(tmp, p.pixels)).hexdigest())
            for rel, tmp, p in zip(images, image_tmps, patches)])
        with open(manifest_tmp, "w") as fh:
            for frame in frames:
                cam = frame.camera
                patch_records = []
                for p in frame.patches:
                    rel, digest = next(records)
                    rec = {
                        "patch_id": p.patch_id,
                        "bbox": [float(b) for b in p.bbox],
                        "image": rel,
                        "loc3d": [float(x) for x in p.loc3d],
                        "sha256": digest,
                    }
                    if p.landmark_id is not None:
                        rec["landmark_id"] = p.landmark_id
                    patch_records.append(rec)
                fh.write(json.dumps({
                    "frame_id": frame.frame_id,
                    "camera": {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx,
                               "cy": cam.cy, "W": cam.width, "H": cam.height},
                    "position": [float(x) for x in frame.position],
                    "patches": patch_records,
                }) + "\n")
        with open(pairs_tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["patch_a", "patch_b", "label"])
            writer.writerows((e.patch_a, e.patch_b, e.label) for e in pairs)
    return paths[0]


@dataclass
class LoadedDataset:
    frames: list
    pairs: list                     # PairEntry
    diagnostics: list


def load_dataset(manifest_path):
    """Read a manifest written by save_dataset (or prepared externally),
    and the pairs.csv beside it if there is one.

    Malformed frame and patch records and repeated ids are skipped and
    reported in ``diagnostics`` as "record N: reason".  pairs.csv rows that
    carry a label other than 0 or 1 are skipped and reported as "pairs row
    N: reason", and rows that name a patch not loaded as one line per such
    patch, after the row lines.  Loading never raises for per-record
    problems.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    frames = []
    diagnostics = []
    seen_frame_ids = set()
    seen_patch_ids = set()
    with open(manifest_path) as fh:
        for idx, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                cam = rec["camera"]
                camera = CameraModel(
                    fx=float(cam["fx"]), fy=float(cam["fy"]),
                    cx=float(cam["cx"]), cy=float(cam["cy"]),
                    width=int(cam["W"]), height=int(cam["H"]),
                    position=rec["position"])
                frame = Frame(rec["frame_id"], camera, rec["position"], [])
                patch_recs = list(rec.get("patches", []))
            except (KeyError, TypeError, ValueError) as exc:
                diagnostics.append("record %d: malformed frame (%s)"
                                   % (idx, exc))
                continue
            if frame.frame_id in seen_frame_ids:
                diagnostics.append("record %d: frame %s: duplicate frame id"
                                   % (idx, frame.frame_id))
                continue
            seen_frame_ids.add(frame.frame_id)
            for p_rec in patch_recs:
                try:
                    patch = _load_patch(base, frame.frame_id, p_rec)
                    if patch.patch_id in seen_patch_ids:
                        raise ValueError("patch %s: duplicate patch id"
                                         % patch.patch_id)
                except (KeyError, TypeError, ValueError) as exc:
                    if not isinstance(exc, ValueError):  # no patch named
                        exc = "malformed patch record (%s: %s)" % (
                            type(exc).__name__, exc)
                    diagnostics.append("record %d: %s" % (idx, exc))
                    continue
                seen_patch_ids.add(patch.patch_id)
                frame.patches.append(patch)
            frames.append(frame)
    entries = []
    unknown = {}                    # patch id -> [rows naming it, first row]
    pairs_path = os.path.join(base, "pairs.csv")
    if os.path.exists(pairs_path):
        with open(pairs_path, newline="") as fh:
            for idx, row in enumerate(csv.DictReader(fh), start=1):
                ids = (row.get("patch_a"), row.get("patch_b"))
                missing = [pid for pid in ids if pid not in seen_patch_ids]
                if missing:
                    for pid in missing:
                        unknown.setdefault(pid, [0, idx])[0] += 1
                elif row.get("label") not in ("0", "1"):
                    diagnostics.append("pairs row %d: label %r is not 0 or 1"
                                       % (idx, row.get("label")))
                else:
                    entries.append(PairEntry(*ids, int(row["label"])))
    for pid, (count, first) in unknown.items():
        diagnostics.append("pairs.csv: %d rows name unknown patch %r "
                           "(first: row %d)" % (count, pid, first))
    return LoadedDataset(frames=frames, pairs=entries,
                         diagnostics=diagnostics)


def _load_patch(base, frame_id, rec):
    """The Patch of one manifest record; ``Patch`` checks all but the
    image, which is named by its manifest-relative path."""
    patch_id, image = rec["patch_id"], rec["image"]
    path = os.path.join(base, image)
    if not os.path.exists(path):
        raise ValueError("patch %s: missing image %s" % (patch_id, image))
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # the checksum vouches for the very bytes that are decoded
        digest = hashlib.sha256(data).hexdigest() if "sha256" in rec else None
        pixels = _decode_image(data)
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError("patch %s: unreadable image %s (%s)"
                         % (patch_id, image, reason)) from None
    if digest != rec.get("sha256"):
        raise ValueError("patch %s: checksum mismatch for %s"
                         % (patch_id, image))
    return Patch(patch_id, frame_id, rec.get("bbox"), pixels,
                 rec.get("loc3d"), rec.get("landmark_id"))
