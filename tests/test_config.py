import inspect

import pytest

from patchgraph import placerec, scene, stereo
from patchgraph.config import (
    SCHEMA,
    ConfigError,
    config_hash,
    default_config,
    load_config,
)


class TestDefaults:
    def test_no_file_no_overrides_gives_defaults(self):
        assert load_config() == default_config()

    def test_every_default_passes_its_own_validation(self):
        # the schema must not reject its own defaults
        load_config(None, ())

    def test_known_defaults(self):
        cfg = default_config()
        assert cfg["model.n"] == 32
        assert cfg["model.arch"] == "gat"
        assert cfg["model.gamma"] == 0.5
        assert cfg["stereo.gamma"] == 0.9
        assert cfg["train.lr"] == 1e-4
        assert cfg["place.iters"] == 100

    def test_defaults_are_copies(self):
        a = load_config()
        a["model.n"] = 99
        assert load_config()["model.n"] == 32

    def test_library_defaults_come_from_the_schema(self):
        cfg = default_config()
        assert placerec.SAME_PLACE_RADIUS_M == cfg["place.radius"]
        assert placerec.DUSTBIN_DEFAULT == cfg["place.dustbin"]
        assert placerec.SINKHORN_TAU == cfg["place.tau"]
        assert placerec.SINKHORN_ITERS == cfg["place.iters"]
        assert stereo.STEREO_MATCH_THRESHOLD == cfg["stereo.gamma"]
        assert scene.NoiseConfig() == scene.NoiseConfig(
            sigma_loc=cfg["synth.sigma_loc"],
            occlusion_prob=cfg["synth.occlusion"],
            sigma_pixel=cfg["synth.sigma_pixel"])
        assert scene.SceneConfig().class_counts == {
            "traffic_light": cfg["synth.lights"],
            "traffic_sign": cfg["synth.signs"],
            "pole": cfg["synth.poles"], "window": cfg["synth.windows"]}
        tau = inspect.signature(scene.ground_truth_pairs).parameters[
            "tau_match"].default
        assert tau == cfg["synth.tau_match"]


class TestFileParsing:
    def test_file_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# full line comment\n"
            "\n"
            "model.n = 16   # trailing comment\n"
            "train.epochs=3\n")
        cfg = load_config(str(p))
        assert cfg["model.n"] == 16
        assert cfg["train.epochs"] == 3
        assert cfg["model.k"] == 5  # untouched default

    def test_bool_spellings(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.balance = off\nplace.tune = YES\n")
        cfg = load_config(str(p))
        assert cfg["train.balance"] is False
        assert cfg["place.tune"] is True

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_line_without_equals_reports_line_number(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.n 16\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        assert any("line 1" in s for s in exc.value.problems)


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.n = 16\n")
        cfg = load_config(str(p), ["model.n=8"])
        assert cfg["model.n"] == 8

    def test_override_without_file(self):
        cfg = load_config(None, ["model.arch=gcn", "train.lr=0.01"])
        assert cfg["model.arch"] == "gcn"
        assert cfg["train.lr"] == 0.01

    def test_malformed_override(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["model.n"])
        assert any("expected key=value" in s for s in exc.value.problems)


class TestValidationAggregation:
    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, [
                "model.n=-3",          # range
                "model.arch=resnet",   # enum
                "train.lr=banana",     # parse
                "no.such.key=1",       # unknown
            ])
        text = "\n".join(exc.value.problems)
        assert len(exc.value.problems) == 4
        assert "model.n" in text
        assert "model.arch" in text
        assert "train.lr" in text
        assert "no.such.key" in text

    def test_enum_violation_names_choices(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["model.pool=median"])
        assert any("mean/max" in s for s in exc.value.problems)

    def test_nan_and_inf_rejected(self):
        for key in ("model.gamma", "place.dustbin"):
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError):
                    load_config(None, ["%s=%s" % (key, bad)])

    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            load_config(None, ["model.gamma=1.5"])
        assert load_config(None, ["model.gamma=1.0"])["model.gamma"] == 1.0

    def test_depth_range_cross_check(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["stereo.depth_min=30"])
        assert any("depth_max" in s for s in exc.value.problems)

    def test_gat_head_divisibility(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["model.n=30", "model.arch=gat"])  # heads=4
        assert any("model.heads" in s for s in exc.value.problems)
        # a non-attention architecture does not care
        cfg = load_config(None, ["model.n=30", "model.arch=gcn"])
        assert cfg["model.n"] == 30

    def test_message_lists_every_problem(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["model.n=0", "train.epochs=0"])
        assert str(exc.value).count("- ") == 2


class TestHash:
    def test_stable_across_calls(self):
        cfg = load_config()
        assert config_hash(cfg) == config_hash(dict(cfg))
        assert len(config_hash(cfg)) == 16

    def test_changes_with_any_value(self):
        base = config_hash(load_config())
        for key in ("model.n", "train.lr", "place.tune"):
            cfg = load_config()
            cfg[key] = 7 if key != "place.tune" else False
            assert config_hash(cfg) != base

    def test_distinguishes_int_from_float(self):
        a, b = load_config(), load_config()
        a["synth.tau_match"] = 1.0
        b["synth.tau_match"] = 1
        assert config_hash(a) != config_hash(b)


def test_schema_covers_every_command_knob():
    # one section per CLI concern
    sections = {k.split(".")[0] for k in SCHEMA}
    assert sections == {"model", "train", "synth", "place", "stereo",
                        "theory"}
