"""Tests of the benchmark itself: a short run of each workload passes its
checks, and each check rejects a corrupted output.

    python3 -m pytest bench/test_bench.py
"""

import copy
import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import patchgraph.autodiff as ad  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


@pytest.mark.parametrize("workload", ["ablation-gcn", "cli-gat-pixels",
                                      "place-all-pairs"])
def test_short_run_passes_its_checks(workload):
    proc = bench("--workload", workload, "--seed", str(SEED),
                 "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "setup_s", "train_pairs_per_s", "eval_pairs_per_s",
        "place_patch_pairs_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["per_layer"]}
    proc = bench("--workload", "place-all-pairs", "--seed", str(SEED),
                 "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == declared
    wall = metrics["trace.wall_ms"]["value"]
    assert abs(metrics["trace.self_sum_ms"]["value"] - wall) < 0.03 * wall
    assert metrics["placerec.sinkhorn_assign.calls"]["value"] == 66
    assert metrics["gnn.gcn_layer.self_ms"]["value"] == 0


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "ablation-gcn", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check rejects a corrupted output ------------------------------------

@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    w = workloads.AblationGcn(SEED, str(tmp_path_factory.mktemp("abl")))
    w.setup()
    r = w.run_round(0)
    assert not r.failed
    return w, r


def _ablation_problems(ablation, edit):
    w, r = ablation
    broken = copy.copy(r)
    broken.out = copy.deepcopy(r.out)
    edit(broken.out)
    return w.check(broken, np.random.default_rng(0))


def test_ablation_checks_pass_on_real_output(ablation):
    found = _ablation_problems(ablation, lambda out: None)
    assert not any(found.values()), found


def _nudge(scores, i=0, by=1e-6):
    scores[i] += by


@pytest.mark.parametrize("op,edit", [
    ("eval_context", lambda out: _nudge(out["eval_context"]["scores"], 5)),
    ("eval_vertex_only",
     lambda out: _nudge(out["eval_vertex_only"]["scores"], 7)),
    ("eval_l2", lambda out: out["eval_l2"].update(
        auc=out["eval_l2"]["auc"] + 1e-6)),
    ("eval_l2", lambda out: out["eval_l2"]["labels"].__setitem__(
        0, 1 - out["eval_l2"]["labels"][0])),
    ("eval_context", lambda out: out["eval_context"]["scores"].pop()),
    ("train_context", lambda out: out["train_context"][1].reverse()),
    ("train_vertex_only",
     lambda out: out["train_vertex_only"][1].__setitem__(0, float("nan"))),
])
def test_ablation_check_rejects(ablation, op, edit):
    assert _ablation_problems(ablation, edit)[op]


def _place_edit(edit):
    def apply(out):
        rows = [list(row) for row in out["place"].rows]
        edit(rows)
        out["place"].rows = [tuple(row) for row in rows]
    return apply


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0].__setitem__(2, rows[0][2] + 1e-6),   # score
    lambda rows: rows[0].__setitem__(4, 1 - rows[0][4]),      # label
    lambda rows: rows[0].__setitem__(3, 1 - rows[0][3]),      # decision
    lambda rows: rows.pop(),                                  # dropped row
])
def test_ablation_place_check_rejects(ablation, edit):
    assert _ablation_problems(ablation, _place_edit(edit))["place"]


def test_swap_check_rejects_an_asymmetric_score(ablation):
    w, r = ablation
    scores = list(r.out["eval_context"]["scores"])
    model = r.models[0]
    rows = w.test_set.rows
    assert not workloads.check_swap(model, rows, scores, [0, 1])
    _nudge(scores, 1)
    assert workloads.check_swap(model, rows, scores, [0, 1])


def test_gradient_check_rejects_a_wrong_gradient(ablation, monkeypatch):
    w, r = ablation
    model = r.models[0]
    rows = w.train_set.rows
    assert not workloads.gradient_check(model, rows,
                                        np.random.default_rng(1))
    right = ad.gradients
    monkeypatch.setattr(ad, "gradients", lambda loss, params: [
        g * 1.001 for g in right(loss, params)])
    assert workloads.gradient_check(model, rows, np.random.default_rng(1))


class TinyCli(workloads.CliFlow):
    name = "tiny-cli"
    scenes = (2, 3, None)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    w = TinyCli(SEED, str(tmp_path_factory.mktemp("cli")))
    w.setup()
    r = w.run_round(0)
    assert not r.failed
    return w, r


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _cli_problems(cli_run, tmp_path, name, op, edit):
    w, r = cli_run
    broken = copy.copy(r)
    broken.dirs = dict(r.dirs)
    for key, src in r.dirs.items():
        broken.dirs[key] = str(tmp_path / key)
        shutil.copytree(src, broken.dirs[key])
    edit(os.path.join(broken.dirs[op], name))
    return w.check(broken, np.random.default_rng(0))[op]


def test_cli_checks_pass_on_real_output(cli_run, tmp_path):
    assert not _cli_problems(cli_run, tmp_path, "metrics.csv", "eval",
                             lambda path: None)


def _set(row, col, fn):
    def edit(path):
        def apply(rows):
            rows[row][col] = fn(rows[row][col])
        _edit_csv(path, apply)
    return edit


@pytest.mark.parametrize("name,op,edit", [
    ("eval_pairs.csv", "eval",
     _set(1, 3, lambda s: "%.10f" % (float(s) + 1e-6))),
    ("eval_pairs.csv", "eval", _set(1, 2, lambda y: str(1 - int(y)))),
    ("eval_pairs.csv", "eval", _set(1, 4, lambda d: str(1 - int(d)))),
    ("eval_pairs.csv", "eval", lambda path: _edit_csv(path, list.pop)),
    ("metrics.csv", "eval", _set(4, 1, lambda v: repr(float(v) + 1e-6))),
    ("place_pairs.csv", "place",
     _set(1, 2, lambda s: "%.10f" % (float(s) + 1e-6))),
    ("place_pairs.csv", "place", _set(1, 4, lambda y: str(1 - int(y)))),
    ("place_pairs.csv", "place", lambda path: _edit_csv(path, list.pop)),
    ("loss_history.csv", "train", _set(1, 1, lambda v: "nan")),
])
def test_cli_check_rejects(cli_run, tmp_path, name, op, edit):
    assert _cli_problems(cli_run, tmp_path, name, op, edit)


def test_checkpoint_check_rejects_a_changed_tensor(cli_run, tmp_path):
    def edit(path):
        with open(path) as fh:
            blob = json.load(fh)
        first = sorted(blob)[0]
        blob[first]["data"][0] += 1e-6
        with open(path, "w") as fh:
            json.dump(blob, fh)

    w, r = cli_run
    path = str(tmp_path / "model.json")
    shutil.copy(os.path.join(r.dirs["train"], "model.json"), path)
    shutil.copy(os.path.join(r.dirs["train"], "model.json.config.json"),
                path + ".config.json")
    from patchgraph.matching import load_model
    model = load_model(path)
    edit(path)
    assert workloads.check_checkpoint(path, model)


def test_rank_auc_counts_ties_as_half():
    assert checks.rank_auc([0.1, 0.5, 0.5, 0.9], [0, 1, 0, 1]) == 0.875
    assert checks.rank_auc([0.3, 0.3], [0, 1]) == 0.5


def test_sinkhorn_reference_meets_its_marginals():
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=(5, 7))
    plan = checks.log_sinkhorn(scores, 0.2, 0.1, 200)
    assert np.allclose(plan[:5].sum(axis=1), 1.0)
    assert np.allclose(plan[:, :7].sum(axis=0), 1.0)
