import csv
import hashlib
import json
import math
import os
import shutil

import numpy as np
import pytest

from patchgraph import scene
from patchgraph.cli import OracleScorer, main
from patchgraph.matching import PAIRINGS, PairCorpus, evaluate
from patchgraph.placerec import score_matrix

TINY_MODEL = ["--set", "model.n=8", "--set", "model.k=2",
              "--set", "model.arch=gcn", "--set", "model.featurizer=fixed_hist"]
TINY_SYNTH = ["--set", "synth.scenes=2", "--set", "synth.lights=2",
              "--set", "synth.signs=2", "--set", "synth.poles=1",
              "--set", "synth.windows=0", "--set", "synth.occlusion=0",
              "--set", "synth.sigma_loc=0.05", "--set", "synth.max_pairs=40"]
TINY_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch=8",
              "--set", "train.lr=0.002"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def edited_checkpoint(workspace, tmp_path, config):
    """A copy of the workspace checkpoint whose config sidecar is
    ``config``."""
    ckpt = str(tmp_path / "model.json")
    with open(workspace["checkpoint"]) as src, open(ckpt, "w") as dst:
        dst.write(src.read())
    with open(ckpt + ".config.json", "w") as fh:
        json.dump(config, fh)
    return ckpt


def first_value(value):
    """A checkpoint edit that makes ``value`` the first value of disc.m21's
    data."""
    def edit(tensors):
        entry = tensors["disc.m21"]
        return dict(tensors, **{"disc.m21": dict(
            entry, data=[value] + entry["data"][1:])})
    return edit


def replace_image(data, patch_id, content):
    """Overwrite one patch's image file with ``content`` and update its
    manifest checksum, so that loading reaches the image reader."""
    rel = "images/%s.pgm" % patch_id.replace("/", "_")
    with open(os.path.join(data, rel), "wb") as fh:
        fh.write(content)
    manifest = os.path.join(data, "manifest.jsonl")
    with open(manifest) as fh:
        frames = [json.loads(line) for line in fh]
    for frame in frames:
        for rec in frame["patches"]:
            if rec["patch_id"] == patch_id:
                rec["sha256"] = hashlib.sha256(content).hexdigest()
    with open(manifest, "w") as fh:
        fh.writelines(json.dumps(frame) + "\n" for frame in frames)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    run = str(root / "run")
    assert main(["synth", "--seed", "3", "--out", data]
                + TINY_SYNTH + TINY_MODEL) == 0
    assert main(["train", "--seed", "3", "--data", data, "--out", run]
                + TINY_SYNTH + TINY_MODEL + TINY_TRAIN) == 0
    return {"data": data, "run": run,
            "checkpoint": os.path.join(run, "model.json")}


class TestSynth:
    def test_dataset_files_exist(self, workspace):
        data = workspace["data"]
        assert os.path.exists(os.path.join(data, "manifest.jsonl"))
        assert os.path.exists(os.path.join(data, "pairs.csv"))
        assert os.path.isdir(os.path.join(data, "images"))

    def test_report_is_stamped(self, workspace):
        rep = read_json(os.path.join(workspace["data"], "synth_report.json"))
        assert rep["scenes"] == 2
        assert rep["frames"] == 4
        assert rep["pairs"] == rep["matched"] + rep["unmatched"]
        assert rep["matched"] > 0 and rep["unmatched"] > 0
        assert len(rep["config_hash"]) == 16
        assert rep["seed"] == 3
        assert "version" in rep

    def test_same_seed_same_pairs(self, workspace, tmp_path):
        other = str(tmp_path / "again")
        assert main(["synth", "--seed", "3", "--out", other]
                    + TINY_SYNTH + TINY_MODEL) == 0
        a = open(os.path.join(workspace["data"], "pairs.csv")).read()
        b = open(os.path.join(other, "pairs.csv")).read()
        assert a == b


    def test_failed_synth_keeps_old_dataset(self, tmp_path, monkeypatch,
                                            capsys):
        # the second synth overwrites four of the old images' names, then
        # fails on its fifth image
        data = str(tmp_path / "data")
        manifest = os.path.join(data, "manifest.jsonl")
        assert main(["synth", "--seed", "1", "--out", data]
                    + TINY_SYNTH) == 0
        before = scene.load_dataset(manifest)
        write_image, written = scene.write_image, []

        def failing_write_image(path, pixels):
            if len(written) == 4:
                raise OSError("disk full")
            written.append(path)
            return write_image(path, pixels)

        monkeypatch.setattr(scene, "write_image", failing_write_image)
        capsys.readouterr()
        assert main(["synth", "--seed", "2", "--out", data]
                    + TINY_SYNTH) == 1
        assert "disk full" in capsys.readouterr().err
        after = scene.load_dataset(manifest)
        assert after.diagnostics == []
        assert after.pairs == before.pairs
        old = [p for f in before.frames for p in f.patches]
        new = [p for f in after.frames for p in f.patches]
        assert [p.patch_id for p in new] == [p.patch_id for p in old]
        for p, q in zip(new, old):
            assert np.array_equal(p.pixels, q.pixels)


class TestTrain:
    def test_checkpoint_and_history(self, workspace):
        run = workspace["run"]
        assert os.path.exists(workspace["checkpoint"])
        assert os.path.exists(workspace["checkpoint"] + ".config.json")
        header, rows = read_csv(os.path.join(run, "loss_history.csv"))
        assert header == ["epoch", "loss"]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["1", "2"]
        float(rows[0][1])  # parses

    def test_report_contents(self, workspace):
        rep = read_json(os.path.join(workspace["run"], "train_report.json"))
        assert rep["epochs"] == 2
        assert rep["pairs"] > 0
        assert isinstance(rep["final_loss"], float)


class TestEval:
    def test_perfect_oracle_is_perfect(self, workspace, tmp_path):
        out = str(tmp_path / "ev")
        assert main(["eval", "--data", workspace["data"], "--out", out,
                     "--perfect-oracle"] + TINY_MODEL) == 0
        rep = read_json(os.path.join(out, "eval_report.json"))
        assert rep["precision"] == 1.0
        assert rep["recall"] == 1.0
        assert rep["f1"] == 1.0
        assert rep["auc"] == 1.0
        assert rep["perfect_oracle"] is True
        assert rep["fn"] == 0 and rep["fp"] == 0

    def test_oracle_scores_landmark_identity(self):
        """0.99 for the same landmark id, 0.01 for different ids and for two
        patches that both lack one, through ``score_matrix`` and
        ``evaluate``.  A manifest id may be any JSON value, a list too."""
        def frame(fid, ids):
            camera = scene.standard_camera(position=(0.0, 0.0, 0.0))
            return scene.Frame(fid, camera, np.zeros(3), [
                scene.Patch("%s/p%d" % (fid, i), fid, (0.0, 0.0, 4.0, 4.0),
                            np.zeros((2, 2), dtype=np.uint8), np.zeros(3),
                            landmark_id=lid) for i, lid in enumerate(ids)])

        fa = frame("a", ["lm0", "lm1", None, [7]])
        fb = frame("b", ["lm1", None, [7]])
        want = [[0.01, 0.01, 0.01], [0.99, 0.01, 0.01], [0.01, 0.01, 0.01],
                [0.01, 0.01, 0.99]]
        oracle = OracleScorer()
        assert score_matrix(fa, fb, None, oracle).tolist() == want
        assert score_matrix(fb, fa, None, oracle).T.tolist() == want
        corpus = PairCorpus([(pa, fa, pb, fb, 0) for pa in fa.patches
                             for pb in fb.patches])
        scores = evaluate(corpus, None, gamma=0.5, scorer=oracle)["scores"]
        assert scores == [s for row in want for s in row]

    def test_trained_checkpoint_runs(self, workspace, tmp_path):
        out = str(tmp_path / "ev")
        assert main(["eval", "--data", workspace["data"], "--out", out,
                     "--checkpoint", workspace["checkpoint"]]) == 0
        header, rows = read_csv(os.path.join(out, "eval_pairs.csv"))
        assert header == ["patch_a", "patch_b", "label", "score", "decision"]
        assert rows
        for _, _, label, score, decision in rows:
            assert label in ("0", "1") and decision in ("0", "1")
            assert 0.0 <= float(score) <= 1.0
        mheader, mrows = read_csv(os.path.join(out, "metrics.csv"))
        assert mheader == ["metric", "value"]
        assert [r[0] for r in mrows] == ["precision", "recall", "f1", "auc",
                                         "tp", "fp", "fn", "tn"]

    def test_missing_checkpoint_is_usage_error(self, workspace, tmp_path,
                                               capsys):
        rc = main(["eval", "--data", workspace["data"],
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_usage_error_creates_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--data", "nowhere"]) == 2
        assert main(["place", "--data", "nowhere", "--out", "x"]) == 2
        assert os.listdir(tmp_path) == []

    def test_runtime_error_creates_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--data", "nowhere",
                     "--checkpoint", "nope.json"]) == 1
        assert os.listdir(tmp_path) == []


class TestMatch:
    def test_scores_all_cross_pairs(self, workspace, tmp_path):
        out = str(tmp_path / "m")
        assert main(["match", "--data", workspace["data"], "--out", out,
                     "--checkpoint", workspace["checkpoint"],
                     "--frame-a", "s000/a", "--frame-b", "s000/b"]) == 0
        header, rows = read_csv(os.path.join(out, "matches.csv"))
        assert header == ["patch_a", "patch_b", "score", "decision"]
        rep = read_json(os.path.join(out, "match_report.json"))
        assert rep["pairs"] == len(rows)
        assert all(r[0].startswith("s000/a/") for r in rows)
        assert all(r[1].startswith("s000/b/") for r in rows)

    def test_unknown_frame_id(self, workspace, tmp_path, capsys):
        rc = main(["match", "--data", workspace["data"],
                   "--out", str(tmp_path / "m"),
                   "--checkpoint", workspace["checkpoint"],
                   "--frame-a", "s000/a", "--frame-b", "zz"])
        assert rc == 1
        assert "zz" in capsys.readouterr().err


class TestPlace:
    def test_end_to_end(self, workspace, tmp_path):
        out = str(tmp_path / "p")
        assert main(["place", "--data", workspace["data"], "--out", out,
                     "--checkpoint", workspace["checkpoint"],
                     "--set", "place.iters=50"]) == 0
        header, rows = read_csv(os.path.join(out, "place_pairs.csv"))
        assert header == ["frame_a", "frame_b", "score", "decision",
                          "same_place"]
        rep = read_json(os.path.join(out, "place_report.json"))
        # 4 frames -> 6 unordered pairs, half held out for tuning
        assert rep["total_pairs"] == 6
        assert rep["evaluated_pairs"] == len(rows) == 3
        assert 0.0 <= rep["accuracy"] <= 1.0
        assert isinstance(rep["threshold"], float)

    def test_fixed_threshold_skips_tuning(self, workspace, tmp_path):
        out = str(tmp_path / "p")
        assert main(["place", "--data", workspace["data"], "--out", out,
                     "--checkpoint", workspace["checkpoint"],
                     "--set", "place.tune=false",
                     "--set", "place.gamma_f=0.25",
                     "--set", "place.iters=50"]) == 0
        rep = read_json(os.path.join(out, "place_report.json"))
        assert rep["threshold"] == 0.25
        assert rep["evaluated_pairs"] == 6  # nothing held out

    def test_radius_sets_same_place(self, workspace, tmp_path):
        columns = []
        for radius in ("10", "500"):  # synth.scene_spacing is 200 m
            out = str(tmp_path / radius)
            assert main(["place", "--data", workspace["data"], "--out", out,
                         "--checkpoint", workspace["checkpoint"],
                         "--set", "place.tune=false",
                         "--set", "place.iters=50",
                         "--set", "place.radius=" + radius]) == 0
            _, rows = read_csv(os.path.join(out, "place_pairs.csv"))
            columns.append([r[4] for r in rows])
        assert columns[0].count("1") == 2  # the two within-scene pairs
        assert columns[1] == ["1"] * 6


    def test_unconverged_sinkhorn_warns(self, workspace, tmp_path, capsys):
        residuals = {}
        for iters in ("1", "100"):
            out = str(tmp_path / iters)
            capsys.readouterr()
            assert main(["place", "--data", workspace["data"], "--out", out,
                         "--checkpoint", workspace["checkpoint"],
                         "--set", "place.iters=" + iters]) == 0
            err = capsys.readouterr().err
            rep = read_json(os.path.join(out, "place_report.json"))
            residuals[iters] = (rep["sinkhorn_max_residual"],
                                "Sinkhorn" in err)
        assert residuals["1"][0] > 1e-6 and residuals["1"][1]
        assert residuals["100"][0] <= 1e-6 and not residuals["100"][1]

    def test_residual_warning_names_both_knobs(self, workspace, tmp_path,
                                               capsys):
        # at a strongly negative dustbin more iterations barely move the
        # residual, so the warning names place.dustbin beside place.iters
        capsys.readouterr()
        assert main(["place", "--data", workspace["data"],
                     "--out", str(tmp_path / "p"),
                     "--checkpoint", workspace["checkpoint"],
                     "--set", "place.dustbin=-5"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: Sinkhorn")]
        assert len(warnings) == 1
        assert "place.iters cap of 100" in warnings[0]
        assert "place.dustbin" in warnings[0]

    def test_patchless_frame_is_left_out(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], str(data))
        manifest = data / "manifest.jsonl"
        frames = [json.loads(line) for line in manifest.read_text().splitlines()]
        frames[1]["patches"] = []
        manifest.write_text("".join(json.dumps(f) + "\n" for f in frames))
        out = str(tmp_path / "p")
        capsys.readouterr()
        assert main(["place", "--data", str(data), "--out", out,
                     "--checkpoint", workspace["checkpoint"],
                     "--set", "place.iters=50"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "has no patches" in line]
        assert warnings == ["warning: frame %s has no patches; left out of "
                            "place recognition" % frames[1]["frame_id"]]
        rep = read_json(os.path.join(out, "place_report.json"))
        assert rep["total_pairs"] == 3  # the 3 frames with patches

    def test_one_frame_pair_needs_a_fixed_threshold(self, tmp_path, capsys):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        one_scene = TINY_SYNTH + ["--set", "synth.scenes=1"]
        assert main(["synth", "--seed", "3", "--out", data] + one_scene) == 0
        assert main(["train", "--seed", "3", "--data", data, "--out", run]
                    + TINY_MODEL + TINY_TRAIN) == 0
        place = ["place", "--data", data, "--set", "place.iters=50",
                 "--checkpoint", os.path.join(run, "model.json")]
        capsys.readouterr()
        assert main(place + ["--out", str(tmp_path / "tuned")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "place.tune=false" in err
        out = str(tmp_path / "fixed")
        assert main(place + ["--out", out, "--set", "place.tune=false"]) == 0
        rep = read_json(os.path.join(out, "place_report.json"))
        assert rep["evaluated_pairs"] == rep["total_pairs"] == 1


class TestStereo:
    def test_oracle_depths_are_exact(self, tmp_path):
        out = str(tmp_path / "s")
        assert main(["stereo", "--seed", "11", "--out", out,
                     "--set", "stereo.oracle_match=true",
                     "--set", "stereo.landmarks=4"] + TINY_MODEL) == 0
        rep = read_json(os.path.join(out, "stereo_report.json"))
        assert rep["valid"] > 0
        assert rep["rmse_m"] < 1e-6  # rectified views, exact boxes
        header, rows = read_csv(os.path.join(out, "stereo.csv"))
        assert header == ["left_patch", "right_patch", "score",
                          "disparity_px", "valid", "depth_m", "true_depth_m",
                          "abs_error_m"]
        for row in rows:
            if row[4] == "1":
                assert abs(float(row[5]) - float(row[6])) < 1e-6

    def test_depth_range_respected(self, tmp_path):
        out = str(tmp_path / "s")
        assert main(["stereo", "--seed", "5", "--out", out,
                     "--set", "stereo.oracle_match=true",
                     "--set", "stereo.depth_min=9",
                     "--set", "stereo.depth_max=11"] + TINY_MODEL) == 0
        _, rows = read_csv(os.path.join(out, "stereo.csv"))
        for row in rows:
            if row[6]:
                assert 9.0 <= float(row[6]) <= 11.0


class TestAblate:
    def test_grid_rows(self, workspace, tmp_path):
        out = str(tmp_path / "a")
        assert main(["ablate", "--data", workspace["data"], "--out", out,
                     "--set", "train.epochs=1", "--set", "train.batch=8"]
                    + TINY_MODEL) == 0
        header, rows = read_csv(os.path.join(out, "ablation.csv"))
        assert header == ["pairing", "discriminator", "auc", "f1",
                          "precision", "recall"]
        # the bilinear pairings in PAIRINGS order, the flagship first, then
        # each pairing's cosine and l2 rows
        order = ([(p, "bilinear") for p in PAIRINGS]
                 + [(p, d) for p in PAIRINGS for d in ("cosine", "l2")])
        assert len(order) == 15
        assert [(r[0], r[1]) for r in rows] == order
        rep = read_json(os.path.join(out, "ablation_report.json"))
        assert [(r["pairing"], r["discriminator"])
                for r in rep["rows"]] == order


class TestReproducibility:
    def test_every_command_is_byte_identical(self, tmp_path, monkeypatch):
        """Two runs from the same (config, seed) in two directories write
        the same files with the same bytes.  Paths are relative, so the
        reports that name files match too."""
        ckpt = ["--checkpoint", os.path.join("train", "model.json")]
        commands = [
            ["synth", "--seed", "3", "--out", "data"] + TINY_SYNTH,
            ["train", "--seed", "3", "--data", "data", "--out", "train"]
            + TINY_MODEL + TINY_TRAIN,
            ["eval", "--data", "data", "--out", "eval"] + ckpt,
            ["match", "--data", "data", "--out", "match", "--frame-a",
             "s000/a", "--frame-b", "s001/b"] + ckpt,
            ["place", "--data", "data", "--out", "place",
             "--set", "place.iters=50"] + ckpt,
            ["stereo", "--seed", "5", "--out", "stereo",
             "--set", "stereo.landmarks=4", "--set", "stereo.gamma=0.5"]
            + ckpt,
            ["ablate", "--seed", "3", "--data", "data", "--out", "ablate"]
            + TINY_MODEL + TINY_TRAIN,
        ]
        trees = []
        for name in ("one", "two"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            for argv in commands:
                assert main(argv) == 0, argv[0]
            trees.append({str(path.relative_to(root)): path.read_bytes()
                          for path in sorted(root.rglob("*"))
                          if path.is_file()})
        for command in ("train", "eval", "match", "place", "stereo",
                        "ablate"):
            assert any(name.startswith(command + os.sep) for name in trees[0])
        assert sorted(trees[0]) == sorted(trees[1])
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name


class TestVerifyTheory:
    ARGS = ["--set", "theory.kl_models=8", "--set", "theory.scaling_models=3",
            "--set", "theory.tv_models=8"]

    def test_passes_and_is_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        assert main(["verify-theory", "--seed", "7", "--out", out1]
                    + self.ARGS) == 0
        assert main(["verify-theory", "--seed", "7", "--out", out2]
                    + self.ARGS) == 0
        b1 = open(os.path.join(out1, "theory_report.json"), "rb").read()
        b2 = open(os.path.join(out2, "theory_report.json"), "rb").read()
        assert b1 == b2
        rep = json.loads(b1)
        assert rep["all_pass"] is True
        assert rep["kl_bound"]["min_margin"] >= -1e-9

    def test_different_seed_changes_report(self, tmp_path):
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        main(["verify-theory", "--seed", "7", "--out", out1] + self.ARGS)
        main(["verify-theory", "--seed", "8", "--out", out2] + self.ARGS)
        r1 = read_json(os.path.join(out1, "theory_report.json"))
        r2 = read_json(os.path.join(out2, "theory_report.json"))
        assert r1["kl_bound"]["min_margin"] != r2["kl_bound"]["min_margin"]


class TestErrors:
    def test_config_problems_exit_2_and_list_keys(self, capsys):
        rc = main(["synth", "--set", "model.n=0", "--set", "bad.key=1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "model.n" in err
        assert "bad.key" in err

    def test_config_file_and_override_both_applied(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("theory.kl_models = 4\n")
        out = str(tmp_path / "t")
        assert main(["verify-theory", "--config", str(cfgfile), "--out", out,
                     "--set", "theory.scaling_models=2",
                     "--set", "theory.tv_models=4"]) == 0
        rep = read_json(os.path.join(out, "theory_report.json"))
        assert rep["kl_bound"]["models"] == 4
        assert rep["perturbation_scaling"]["models"] == 2

    def test_dropped_patch_is_a_warning(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "3", "--out", str(data)]
                    + TINY_SYNTH) == 0
        _, pairs = read_csv(str(data / "pairs.csv"))
        dropped = pairs[0][0]
        os.remove(str(data / "images" / (dropped.replace("/", "_") + ".pgm")))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run")]
                    + TINY_MODEL + TINY_TRAIN) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:") and dropped in line]
        assert any("missing image" in line for line in warnings)
        unknown = [line for line in warnings if "unknown patch" in line]
        assert len(unknown) == 1
        assert unknown[0].startswith("warning: pairs.csv: ")
        assert unknown[0].endswith("rows name unknown patch %r (first: row 1)"
                                   % dropped)

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "o")] + TINY_TRAIN)
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar,named", [("extra key", "dropout"),
                                               ("list", "not a JSON object")])
    def test_unknown_checkpoint_config_key_exits_1(self, workspace, tmp_path,
                                                   capsys, sidecar, named):
        config = read_json(workspace["checkpoint"] + ".config.json")
        config["dropout"] = 0.1
        if sidecar == "list":
            config = sorted(config)
        ckpt = edited_checkpoint(workspace, tmp_path, config)
        capsys.readouterr()
        rc = main(["eval", "--data", workspace["data"], "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize("edit,named", [
        pytest.param({"k": "5"}, "model.k", id="k_str"),
        pytest.param({"k": -1}, "model.k", id="k_negative"),
        pytest.param({"k": 0}, "model.k", id="k_zero"),
        pytest.param({"n": 8.0}, "model.n", id="n_float"),
        pytest.param({"gamma": "0.5"}, "model.gamma", id="gamma_str"),
        pytest.param({"gamma": True}, "model.gamma", id="gamma_bool"),
        pytest.param({"heads": 0}, "model.heads", id="heads_zero"),
        pytest.param({"pool": "sum"}, "model.pool", id="pool_sum"),
        pytest.param({"architecture": "mlp"}, "model.arch", id="arch_mlp"),
        pytest.param({"featurizer": "resnet"}, "model.featurizer",
                     id="featurizer_resnet"),
        pytest.param({"architecture": "gat", "heads": 3, "n": 8},
                     "model.heads", id="gat_heads_not_dividing_n"),
        pytest.param({"channels": 3}, "channels", id="channels_3"),
        pytest.param({"k": None}, "missing keys: k", id="k_missing"),
    ])
    def test_bad_checkpoint_config_value_exits_1(self, workspace, tmp_path,
                                                 capsys, edit, named):
        config = read_json(workspace["checkpoint"] + ".config.json")
        config.update(edit)
        if config["k"] is None:  # the k_missing case
            del config["k"]
        ckpt = edited_checkpoint(workspace, tmp_path, config)
        capsys.readouterr()
        rc = main(["eval", "--data", workspace["data"], "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda tensors: [], "not a JSON object", id="list"),
        pytest.param(lambda tensors: dict(tensors, **{"disc.m12": 3}),
                     "'disc.m12'", id="entry_number"),
        pytest.param(lambda tensors: dict(tensors, **{"disc.m12": dict(
            tensors["disc.m12"], shape=3)}), "'disc.m12'", id="shape_number"),
        pytest.param(lambda tensors: dict(tensors, **{"disc.m12": dict(
            tensors["disc.m12"], data=[{}])}), "'disc.m12'", id="data_object"),
        pytest.param(first_value(None), "'disc.m21'", id="data_null"),
        pytest.param(first_value("2.5"), "'disc.m21'", id="data_string"),
        pytest.param(first_value(True), "'disc.m21'", id="data_bool"),
        pytest.param(first_value(math.nan), "'disc.m21'", id="data_nan"),
        pytest.param(first_value(math.inf), "'disc.m21'", id="data_inf"),
        pytest.param(first_value(-math.inf), "'disc.m21'", id="data_neg_inf"),
    ])
    def test_malformed_checkpoint_tensors_exit_1(self, workspace, tmp_path,
                                                 capsys, edit, named):
        ckpt = edited_checkpoint(workspace, tmp_path, read_json(
            workspace["checkpoint"] + ".config.json"))
        with open(ckpt, "w") as fh:
            json.dump(edit(read_json(workspace["checkpoint"])), fh)
        capsys.readouterr()
        rc = main(["eval", "--data", workspace["data"], "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert named in err

    def test_non_finite_checkpoint_place_exits_1(self, workspace, tmp_path,
                                                 capsys):
        ckpt = edited_checkpoint(workspace, tmp_path, read_json(
            workspace["checkpoint"] + ".config.json"))
        with open(ckpt, "w") as fh:
            json.dump(first_value(math.nan)(
                read_json(workspace["checkpoint"])), fh)
        capsys.readouterr()
        out = tmp_path / "p"
        rc = main(["place", "--data", workspace["data"], "--checkpoint",
                   ckpt, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "'disc.m21'" in err
        assert not out.exists()

    def test_grayscale_channels_entry_still_loads(self, workspace, tmp_path):
        # checkpoints written before patches were grayscale-only carry
        # "channels": 1
        config = read_json(workspace["checkpoint"] + ".config.json")
        assert "channels" not in config
        config["channels"] = 1
        ckpt = edited_checkpoint(workspace, tmp_path, config)
        outputs = []
        for checkpoint, out in ((ckpt, "old"), (workspace["checkpoint"], "new")):
            assert main(["eval", "--data", workspace["data"], "--checkpoint",
                         checkpoint, "--out", str(tmp_path / out)]) == 0
            outputs.append(open(str(tmp_path / out / "eval_pairs.csv")).read())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("image,reason", [
        (b"P6\n2 2\n255\n" + bytes(12), "unreadable image"),
        (b"P5\n3 2\n", "unreadable image"),
        # a valid PGM, too small for the descriptor's gradients
        (b"P5\n5 1\n255\n" + bytes(5), "pixels of shape (1, 5)")],
        ids=["rgb", "header_cut_before_maxval", "5x1"])
    def test_unreadable_patch_image_is_a_warning(self, tmp_path, capsys,
                                                 image, reason):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "3", "--out", str(data)]
                    + TINY_SYNTH) == 0
        _, pairs = read_csv(str(data / "pairs.csv"))
        bad = pairs[0][0]
        replace_image(str(data), bad, image)
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run")]
                    + TINY_MODEL + TINY_TRAIN) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: record ")
                    and ": patch %s: " % bad in line]
        assert len(warnings) == 1 and reason in warnings[0]

    def test_bad_patch_records_are_warnings(self, tmp_path, capsys):
        # one image path that is a directory and one 2-vector loc3d: train
        # and place each skip both records with a warning and exit 0
        data = tmp_path / "data"
        assert main(["synth", "--seed", "3", "--out", str(data)]
                    + TINY_SYNTH) == 0
        manifest = data / "manifest.jsonl"
        frames = [json.loads(line) for line in manifest.read_text().splitlines()]
        dir_rec, loc_rec = frames[0]["patches"][0], frames[1]["patches"][0]
        os.remove(str(data / dir_rec["image"]))
        os.mkdir(str(data / dir_rec["image"]))
        loc_rec["loc3d"] = [1, 2]
        manifest.write_text("".join(json.dumps(f) + "\n" for f in frames))
        run = tmp_path / "run"
        commands = [
            ["train", "--data", str(data), "--out", str(run)]
            + TINY_MODEL + TINY_TRAIN,
            ["place", "--data", str(data), "--checkpoint",
             str(run / "model.json"), "--out", str(tmp_path / "place")]]
        for args in commands:
            capsys.readouterr()
            assert main(args) == 0
            err = capsys.readouterr().err
            assert "Traceback" not in err
            for record, rec in ((0, dir_rec), (1, loc_rec)):
                assert any(line.startswith("warning: record %d: patch %s: "
                                           % (record, rec["patch_id"]))
                           for line in err.splitlines())

    def test_failed_report_write_keeps_previous_report(self, tmp_path,
                                                       monkeypatch):
        out = str(tmp_path / "t")
        args = ["verify-theory", "--out", out] + TestVerifyTheory.ARGS
        assert main(args) == 0
        path = os.path.join(out, "theory_report.json")
        before = open(path).read()

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"torn": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        assert main(args) == 1
        assert open(path).read() == before
        assert json.loads(before)["all_pass"] is True
        assert os.listdir(out) == ["theory_report.json"]
