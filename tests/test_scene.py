"""Tests for scene generation, projection, labeling and dataset IO."""

import hashlib
import json

import numpy as np
import pytest

from patchgraph import scene as sc


def _cam(pos=(0.0, 1.5, 0.0), **kw):
    return sc.standard_camera(pos, **kw)


# -- projection --------------------------------------------------------------

def test_projection_on_optical_axis():
    cam = _cam((0.0, 0.0, 0.0), cx=640.0, cy=480.0)
    u, v, depth, in_view = sc.project_to_image((0.0, 0.0, 10.0), cam)
    assert (u, v) == (640.0, 480.0)
    assert depth == 10.0
    assert in_view


def test_projection_formula_oracle():
    # u = fx*X/Z + cx = 700*1/10 + 640 = 710
    # v = fy*Y/Z + cy = 800*2/10 + 400 = 560
    cam = _cam((0.0, 0.0, 0.0), fx=700.0, fy=800.0, cx=640.0, cy=400.0)
    u, v, depth, _ = sc.project_to_image((1.0, 2.0, 10.0), cam)
    assert u == pytest.approx(710.0, abs=1e-12)
    assert v == pytest.approx(560.0, abs=1e-12)
    assert depth == 10.0


def test_projection_behind_camera_raises():
    cam = _cam((0.0, 0.0, 0.0))
    with pytest.raises(sc.BehindCameraError):
        sc.project_to_image((0.0, 0.0, -1.0), cam)


def test_projection_out_of_view_is_flagged_not_raised():
    cam = _cam((0.0, 0.0, 0.0))
    u, v, depth, in_view = sc.project_to_image((50.0, 0.0, 5.0), cam)
    assert not in_view
    assert depth == 5.0


def test_projection_respects_camera_pose():
    cam = _cam((2.0, 0.0, 5.0))
    u, v, depth, _ = sc.project_to_image((2.0, 0.0, 15.0), cam)
    assert u == cam.cx and depth == 10.0


def test_camera_validation():
    with pytest.raises(ValueError):
        sc.CameraModel(fx=-1.0, fy=700.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ValueError):
        sc.CameraModel(fx=700.0, fy=700.0, cx=99.0, cy=0.0, width=10, height=10)


# -- scene generation ---------------------------------------------------------

def test_generate_scene_empty():
    cfg = sc.SceneConfig(class_counts={})
    assert sc.generate_scene(cfg, seed=1) == []


def test_generate_scene_deterministic():
    cfg = sc.SceneConfig()
    a = sc.generate_scene(cfg, seed=42)
    b = sc.generate_scene(cfg, seed=42)
    assert [lm.landmark_id for lm in a] == [lm.landmark_id for lm in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.position, y.position)
        assert x.appearance_seed == y.appearance_seed


def test_generate_scene_min_spacing_holds():
    cfg = sc.SceneConfig(class_counts={"pole": 10, "window": 10},
                         min_spacing=2.0)
    scene = sc.generate_scene(cfg, seed=7)
    assert len(scene) == 20
    for i in range(20):
        for j in range(i + 1, 20):
            d = np.linalg.norm(scene[i].position - scene[j].position)
            assert d >= 2.0


def test_generate_scene_infeasible_spacing_raises():
    cfg = sc.SceneConfig(class_counts={"pole": 50},
                         x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                         z_range=(5.0, 6.0), min_spacing=2.0, max_retries=50)
    with pytest.raises(sc.GenerationError):
        sc.generate_scene(cfg, seed=1)


def test_landmark_class_validated():
    with pytest.raises(ValueError):
        sc.Landmark3D("lm0", "hydrant", np.zeros(3), 1)


# -- rendering ----------------------------------------------------------------

def _small_scene(seed=5, **counts):
    cfg = sc.SceneConfig(class_counts=counts or
                         {"traffic_light": 2, "traffic_sign": 2,
                          "pole": 2, "window": 2})
    return sc.generate_scene(cfg, seed=seed)


def test_render_views_deterministic_and_ground_truthed():
    scene = _small_scene()
    noise = sc.NoiseConfig(sigma_loc=0.2, occlusion_prob=0.1)
    fa1, fb1 = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((3, 1.5, 0)), noise, seed=11)
    fa2, fb2 = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((3, 1.5, 0)), noise, seed=11)
    assert [p.patch_id for p in fa1.patches] == [p.patch_id for p in fa2.patches]
    for p, q in zip(fa1.patches, fa2.patches):
        np.testing.assert_array_equal(p.pixels, q.pixels)
        np.testing.assert_array_equal(p.loc3d, q.loc3d)
    assert all(p.landmark_id is not None for p in fb1.patches)
    assert fa1.frame_id != fb1.frame_id


def test_render_views_zero_noise_identical_poses():
    scene = _small_scene()
    noise = sc.NoiseConfig(sigma_loc=0.0, occlusion_prob=0.0, sigma_pixel=0.0)
    cam = _cam((0, 1.5, 0))
    fa, fb = sc.render_views(scene, cam, cam, noise, seed=3)
    assert len(fa.patches) == len(fb.patches)
    for p, q in zip(fa.patches, fb.patches):
        np.testing.assert_array_equal(p.loc3d, q.loc3d)
        assert p.landmark_id == q.landmark_id


def test_render_views_full_occlusion_gives_empty_frames():
    scene = _small_scene()
    noise = sc.NoiseConfig(occlusion_prob=1.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((2, 1.5, 0)), noise, seed=9)
    assert fa.patches == [] and fb.patches == []


def test_render_views_location_noise_statistics():
    # many landmarks, sigma 0.2: per-axis error std lands in [0.18, 0.22]
    cfg = sc.SceneConfig(class_counts={"pole": 1000},
                         x_range=(-60, 60), y_range=(0, 40),
                         z_range=(5, 120), min_spacing=0.0)
    scene = sc.generate_scene(cfg, seed=21)
    cam = _cam((0, 20, -200), fx=300.0, fy=300.0)
    noise = sc.NoiseConfig(sigma_loc=0.2, occlusion_prob=0.0, sigma_pixel=0.0)
    fa, _ = sc.render_views(scene, cam, cam, noise, seed=22)
    assert len(fa.patches) > 800
    by_id = {lm.landmark_id: lm.position for lm in scene}
    errors = np.stack([p.loc3d - by_id[p.landmark_id] for p in fa.patches])
    for axis in range(3):
        assert 0.18 <= errors[:, axis].std() <= 0.22


def test_render_views_bbox_and_texture_scale_with_depth():
    lm_near = sc.Landmark3D("lm000", "pole", np.array([0.0, 1.5, 8.0]), 77)
    lm_far = sc.Landmark3D("lm001", "pole", np.array([1.0, 1.5, 24.0]), 77)
    noise = sc.NoiseConfig(sigma_loc=0.0, occlusion_prob=0.0, sigma_pixel=0.0)
    fa, _ = sc.render_views([lm_near, lm_far], _cam((0, 1.5, 0)), _cam((0, 1.5, 0)), noise, 1)
    near, far = fa.patches
    w_near = near.bbox[2] - near.bbox[0]
    w_far = far.bbox[2] - far.bbox[0]
    assert w_near == pytest.approx(3.0 * w_far, rel=1e-9)  # 24/8 depth ratio
    assert near.pixels.shape == (sc.PATCH_SIDE, sc.PATCH_SIDE)
    # same appearance seed, different depth: texture must differ
    assert (near.pixels != far.pixels).any()


def test_texture_classes_are_distinct():
    imgs = {cls: sc._texture(cls, 123, 1.0) for cls in sc.LANDMARK_CLASSES}
    keys = list(imgs)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert (imgs[keys[i]] != imgs[keys[j]]).mean() > 0.1


# -- patch records --------------------------------------------------------------

def test_patch_rejects_empty_pixels():
    for shape in ((0, 0), (4, 0)):
        with pytest.raises(ValueError, match="patch a/p0: pixels of shape"):
            sc.Patch("a/p0", "a", (0, 0, 4, 4), np.zeros(shape, np.uint8),
                     [0, 0, 10])


def test_patch_rejects_rgb_pixels():
    # patches are grayscale: an H x W x 3 block never reaches a featurizer
    with pytest.raises(ValueError, match="patch a/p0: pixels of shape"):
        sc.Patch("a/p0", "a", (0, 0, 4, 4), np.zeros((4, 4, 3), np.uint8),
                 [0, 0, 10])


# -- ground-truth labeling ----------------------------------------------------

def _patch(pid, fid, loc, lm=None):
    return sc.Patch(patch_id=pid, frame_id=fid, bbox=(0, 0, 4, 4),
                    pixels=np.zeros((4, 4), dtype=np.uint8),
                    loc3d=np.asarray(loc, float), landmark_id=lm)


def _frame(fid, patches, pos=(0, 0, 0)):
    return sc.Frame(frame_id=fid, camera=_cam(pos), position=np.asarray(pos, float),
                    patches=patches)


def test_ground_truth_pairs_id_override():
    fa = _frame("a", [_patch("a/p0", "a", [0, 0, 10], lm="lm1")])
    fb = _frame("b", [_patch("b/p0", "b", [30, 0, 10], lm="lm1")], pos=(3, 0, 0))
    entries, disagreements = sc.ground_truth_pairs(fa, fb, tau_match=1.0)
    assert entries[0].label == 1  # same id wins despite 30 m distance
    assert disagreements == 1


def test_ground_truth_pairs_by_distance():
    fa = _frame("a", [_patch("a/p0", "a", [0, 0, 10])])
    fb = _frame("b", [_patch("b/p0", "b", [50, 0, 10]),
                      _patch("b/p1", "b", [0.5, 0, 10])], pos=(3, 0, 0))
    entries, _ = sc.ground_truth_pairs(fa, fb, tau_match=1.0)
    labels = {e.patch_b: e.label for e in entries}
    assert labels["b/p0"] == 0
    assert labels["b/p1"] == 1


def test_ground_truth_pairs_boundary_inclusive():
    fa = _frame("a", [_patch("a/p0", "a", [0.0, 0.0, 10.0])])
    fb = _frame("b", [_patch("b/p0", "b", [1.0, 0.0, 10.0])], pos=(3, 0, 0))
    entries, _ = sc.ground_truth_pairs(fa, fb, tau_match=1.0)
    assert entries[0].label == 1


def test_ground_truth_pairs_label_symmetry():
    scene = _small_scene(seed=13)
    noise = sc.NoiseConfig(sigma_loc=0.1, occlusion_prob=0.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)), noise, 5)
    ab, _ = sc.ground_truth_pairs(fa, fb)
    ba, _ = sc.ground_truth_pairs(fb, fa)
    fwd = {(e.patch_a, e.patch_b): e.label for e in ab}
    rev = {(e.patch_b, e.patch_a): e.label for e in ba}
    assert fwd == rev


def test_ground_truth_pairs_missing_location_raises():
    # the patch without a location is rejected when it is built, before
    # ground_truth_pairs can see it
    with pytest.raises(ValueError, match="a/p0"):
        sc.Patch("a/p0", "a", (0, 0, 4, 4), np.zeros((4, 4), np.uint8), None)


def test_ground_truth_pairs_subsampling():
    fa = _frame("a", [_patch("a/p%d" % i, "a", [i, 0, 10]) for i in range(6)])
    fb = _frame("b", [_patch("b/p%d" % i, "b", [i, 0, 20]) for i in range(6)],
                pos=(3, 0, 0))
    rng = np.random.default_rng(0)
    entries, _ = sc.ground_truth_pairs(fa, fb, max_pairs=10, rng=rng)
    assert len(entries) == 10
    with pytest.raises(ValueError):
        sc.ground_truth_pairs(fa, fb, max_pairs=10)


# -- image files and manifests --------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    sc.write_image(path, img)
    np.testing.assert_array_equal(sc._decode_image(path.read_bytes()), img)


def test_rgb_image_rejected(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        sc.write_image(tmp_path / "x.pgm", img)
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n6 4\n255\n" + img.tobytes())
    with pytest.raises(ValueError):
        sc._decode_image(path.read_bytes())


@pytest.mark.parametrize("data", [b"", b"P5\n3 2\n", b"P5\n0 0\n255\n"],
                         ids=["empty", "header_cut_before_maxval",
                              "zero_pixels"])
def test_malformed_pgm_rejected(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        sc._decode_image(path.read_bytes())


def test_read_image_with_comment_header(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "c.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n3 2\n255\n" + img.tobytes())
    np.testing.assert_array_equal(sc._decode_image(path.read_bytes()), img)


def test_dataset_round_trip(tmp_path):
    scene = _small_scene(seed=31)
    noise = sc.NoiseConfig(sigma_loc=0.1, occlusion_prob=0.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)), noise, 8)
    entries, _ = sc.ground_truth_pairs(fa, fb)
    manifest = sc.save_dataset(tmp_path / "ds", [fa, fb], entries)

    loaded = sc.load_dataset(manifest)
    assert loaded.diagnostics == []
    assert len(loaded.frames) == 2
    assert [len(f.patches) for f in loaded.frames] == [len(fa.patches), len(fb.patches)]
    orig = {e.patch_a + "|" + e.patch_b: e.label for e in entries}
    back = {e.patch_a + "|" + e.patch_b: e.label for e in loaded.pairs}
    assert orig == back
    for p_orig, p_back in zip(fa.patches, loaded.frames[0].patches):
        np.testing.assert_array_equal(p_orig.pixels, p_back.pixels)
        np.testing.assert_allclose(p_orig.loc3d, p_back.loc3d, atol=1e-12)
        assert p_back.landmark_id == p_orig.landmark_id


def test_save_dataset_failure_keeps_previous_files(tmp_path, monkeypatch):
    scene = _small_scene(seed=31)
    noise = sc.NoiseConfig(sigma_loc=0.1, occlusion_prob=0.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)), noise, 8)
    entries, _ = sc.ground_truth_pairs(fa, fb)
    sc.save_dataset(tmp_path, [fb], entries[:3])
    before = {name: (tmp_path / name).read_bytes()
              for name in ["manifest.jsonl", "pairs.csv"]
              + [str(p.relative_to(tmp_path))
                 for p in (tmp_path / "images").iterdir()]}

    write_image, written = sc.write_image, []

    def failing_write_image(path, pixels):
        if len(written) == len(fa.patches):  # the first image of fb
            raise OSError("disk full")
        written.append(path)
        return write_image(path, pixels)

    monkeypatch.setattr(sc, "write_image", failing_write_image)
    with pytest.raises(OSError, match="disk full"):
        sc.save_dataset(tmp_path, [fa, fb], entries)
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert not list(tmp_path.glob("**/*.tmp"))

    # a fault in pairs.csv, after the manifest is complete
    monkeypatch.setattr(sc, "write_image", write_image)

    def failing_pairs():
        yield entries[0]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        sc.save_dataset(tmp_path, [fa, fb], failing_pairs())
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert not list(tmp_path.glob("**/*.tmp"))


def test_load_dataset_opens_each_image_once(tmp_path, monkeypatch):
    """The checksum and the pixels come from one read of the image."""
    scene = _small_scene(seed=31)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)),
                             sc.NoiseConfig(occlusion_prob=0.0), 8)
    manifest = sc.save_dataset(tmp_path / "ds", [fa, fb], [])
    opened = []

    def counted(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(sc, "open", counted, raising=False)
    loaded = sc.load_dataset(manifest)
    assert loaded.diagnostics == []
    images = [p for p in opened if p.endswith(".pgm")]
    assert len(images) == len(set(images)) == len(fa.patches) + len(fb.patches)


def test_load_dataset_empty_manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("")
    loaded = sc.load_dataset(path)
    assert loaded.frames == [] and loaded.pairs == []
    assert loaded.diagnostics == []


def test_load_dataset_rejects_bad_records(tmp_path):
    img = np.zeros((4, 4), dtype=np.uint8)
    sc.write_image(tmp_path / "ok.pgm", img)
    records = [
        json.dumps({"frame_id": "f0",
                    "camera": {"fx": 700, "fy": 700, "cx": 2, "cy": 2, "W": 10, "H": 10},
                    "position": [0, 0, 0],
                    "patches": [
                        {"patch_id": "f0/p0", "bbox": [5, 5, 3, 9],
                         "image": "ok.pgm", "loc3d": [0, 0, 5]},
                        {"patch_id": "f0/p1", "bbox": [0, 0, 4, 4],
                         "image": "missing.pgm", "loc3d": [0, 0, 5]},
                        {"patch_id": "f0/p2", "bbox": [0, 0, 4, 4],
                         "image": "ok.pgm", "loc3d": [0, 0, 5]},
                    ]}),
        "{not json",
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(records) + "\n")
    loaded = sc.load_dataset(path)
    assert len(loaded.frames) == 1
    assert len(loaded.frames[0].patches) == 1  # only f0/p2 survives
    assert len(loaded.diagnostics) == 3
    assert any("degenerate bbox" in d and "record 0" in d for d in loaded.diagnostics)
    assert any("missing image" in d for d in loaded.diagnostics)
    assert any("record 1" in d for d in loaded.diagnostics)


def test_load_dataset_skips_bad_pair_rows(tmp_path):
    scene = _small_scene(seed=32)
    noise = sc.NoiseConfig(sigma_loc=0.1, occlusion_prob=0.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)), noise, 9)
    entries, _ = sc.ground_truth_pairs(fa, fb)
    manifest = sc.save_dataset(tmp_path, [fa, fb], entries)
    dropped = entries[0].patch_a
    (tmp_path / "images" / (dropped.replace("/", "_") + ".pgm")).unlink()
    with open(tmp_path / "pairs.csv", "a") as fh:
        fh.write("%s,%s,yes\n" % (fa.patches[-1].patch_id, fb.patches[-1].patch_id))
    loaded = sc.load_dataset(manifest)
    kept = [e for e in entries if dropped not in (e.patch_a, e.patch_b)]
    assert [(e.patch_a, e.patch_b, e.label) for e in loaded.pairs] == \
        [(e.patch_a, e.patch_b, e.label) for e in kept]
    # one line per bad label, then one line per unknown patch
    pair_lines = [d for d in loaded.diagnostics if d.startswith("pairs")]
    assert pair_lines == [
        "pairs row %d: label 'yes' is not 0 or 1" % (len(entries) + 1),
        "pairs.csv: %d rows name unknown patch %r (first: row 1)"
        % (len(entries) - len(kept), dropped)]


def test_load_dataset_checksum_verified(tmp_path):
    img = np.zeros((4, 4), dtype=np.uint8)
    sc.write_image(tmp_path / "img.pgm", img)
    rec = {"frame_id": "f0",
           "camera": {"fx": 700, "fy": 700, "cx": 2, "cy": 2, "W": 10, "H": 10},
           "position": [0, 0, 0],
           "patches": [{"patch_id": "f0/p0", "bbox": [0, 0, 4, 4],
                        "image": "img.pgm", "loc3d": [0, 0, 5],
                        "sha256": "0" * 64}]}
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    loaded = sc.load_dataset(path)
    assert loaded.frames[0].patches == []
    assert any("checksum mismatch" in d for d in loaded.diagnostics)


# -- one bad manifest record, one diagnostic ------------------------------------

def _set_patch(key, value):
    def edit(records, root):
        records[0]["patches"][0][key] = value
    return edit


def _del_patch(key):
    def edit(records, root):
        del records[0]["patches"][0][key]
    return edit


def _set_frame(key, value, record=0):
    def edit(records, root):
        records[record][key] = value
    return edit


def _image_is_directory(keep_checksum):
    def edit(records, root):
        rec = records[0]["patches"][0]
        path = root / rec["image"]
        path.unlink()
        path.mkdir()
        if not keep_checksum:
            del rec["sha256"]
    return edit


def _image_5x1(records, root):
    # a valid PGM, 5 pixels wide and 1 high, with its checksum updated:
    # too small for the descriptor's gradients
    rec = records[0]["patches"][0]
    data = sc.write_image(root / rec["image"], np.zeros((1, 5), np.uint8))
    rec["sha256"] = hashlib.sha256(data).hexdigest()


def _repeat_frame_id(records, root):
    records[1]["frame_id"] = records[0]["frame_id"]


# (edit, index of the bad record, whether the whole frame is dropped)
BAD_RECORDS = {
    "loc3d_string": (_set_patch("loc3d", "abc"), 0, False),
    "loc3d_short": (_set_patch("loc3d", [1, 2]), 0, False),
    "loc3d_missing": (_del_patch("loc3d"), 0, False),
    "loc3d_nan": (_set_patch("loc3d", [float("nan"), 0, 0]), 0, False),
    "patches_not_a_list": (_set_frame("patches", 5), 0, True),
    "frame_id_list": (_set_frame("frame_id", ["x"]), 0, True),
    "image_directory": (_image_is_directory(False), 0, False),
    "image_directory_with_checksum": (_image_is_directory(True), 0, False),
    "image_5x1": (_image_5x1, 0, False),
    "position_nan": (_set_frame("position", [float("nan"), 0, 0]), 0, True),
    "position_short": (_set_frame("position", [0, 0]), 0, True),
    "frame_id_repeated": (_repeat_frame_id, 1, True),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_record_is_one_diagnostic(tmp_path, case):
    edit, bad, whole_frame = BAD_RECORDS[case]
    scene = _small_scene(seed=33)
    noise = sc.NoiseConfig(sigma_loc=0.1, occlusion_prob=0.0)
    fa, fb = sc.render_views(scene, _cam((0, 1.5, 0)), _cam((4, 1.5, 0)),
                             noise, 10)
    manifest = sc.save_dataset(tmp_path, [fa, fb])
    with open(manifest) as fh:
        records = [json.loads(line) for line in fh]
    edit(records, tmp_path)
    with open(manifest, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)

    loaded = sc.load_dataset(manifest)
    assert len(loaded.diagnostics) == 1
    assert loaded.diagnostics[0].startswith("record %d: " % bad)
    good = [f for i, f in enumerate((fa, fb)) if not (whole_frame and i == bad)]
    assert [f.frame_id for f in loaded.frames] == [f.frame_id for f in good]
    expected = [p.patch_id for f in good for p in f.patches]
    if not whole_frame:
        expected.remove(fa.patches[0].patch_id)
    assert [p.patch_id for f in loaded.frames for p in f.patches] == expected
