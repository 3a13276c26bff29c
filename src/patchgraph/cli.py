"""Command-line harness.

Subcommands cover the full workflow: synthetic data generation, training,
evaluation (including cross-dataset runs), pairwise matching, ablation
grids, the two applications, and the numerical verification of the
information-theoretic bounds.  Every command is reproducible from
(config, seed) and stamps its reports with the config hash and package
version.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from . import autodiff as ad
from .config import ConfigError, config_hash, load_config
from .infotheory import run_bound_checks
from .matching import (
    PAIRINGS,
    ModelConfig,
    PairCorpus,
    TrainConfig,
    VariantScorer,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from .placerec import (
    SINKHORN_RESIDUAL_TOL,
    place_recognition_eval,
    score_matrix,
)
from .scene import (
    CLASS_COUNT_KEYS,
    LANDMARK_CLASSES,
    Landmark3D,
    NoiseConfig,
    SceneConfig,
    generate_scene,
    ground_truth_pairs,
    load_dataset,
    render_views,
    save_dataset,
    staged,
    standard_camera,
)
from .seeds import rng_for
from .stereo import StereoGeometry, estimate_depths


# -- plumbing -----------------------------------------------------------------

def _json_safe(x):
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else str(x)  # "nan", "inf" or "-inf"
    if isinstance(x, np.ndarray):
        return _json_safe(x.tolist())
    return x


def _write_report(out_dir, name, payload, cfg, seed):
    payload = dict(payload)
    payload["config_hash"] = config_hash(cfg)
    payload["version"] = __version__
    payload["seed"] = seed
    path = os.path.join(out_dir, name)
    with staged(path) as (tmp,), open(tmp, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir, name, header, rows):
    with staged(os.path.join(out_dir, name)) as (tmp,):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _load_corpus(data_dir):
    manifest = os.path.join(data_dir, "manifest.jsonl")
    loaded = load_dataset(manifest)
    for line in loaded.diagnostics:
        print("warning: %s" % line, file=sys.stderr)
    corpus = PairCorpus.from_frames(loaded.frames, loaded.pairs)
    return loaded.frames, corpus


class OracleScorer:
    """Debug scorer that reads the ground truth: same landmark id scores
    0.99, anything else 0.01.  Its operand rows code each landmark id as a
    number and a patch without one as NaN, which equals nothing."""

    def operands(self, index, slots):
        ids = [patch.landmark_id for patch, _ in index.patches]
        # code: the first place of an equal id, found with ==, so ids of
        # any JSON type work, lists (which do not hash) included
        column = ad.constant([[np.nan if ids[s] is None
                               else ids.index(ids[s])] for s in slots])
        return column, column

    def pair(self, x, y):
        return ad.constant(np.where(x.data[..., 0] == y.data[..., 0],
                                    0.99, 0.01))


# -- subcommands --------------------------------------------------------------

def cmd_synth(cfg, seed, out_dir, args):
    scene_cfg = SceneConfig(class_counts={
        cls: cfg[key] for cls, key in CLASS_COUNT_KEYS.items()})
    noise = NoiseConfig(sigma_loc=cfg["synth.sigma_loc"],
                        occlusion_prob=cfg["synth.occlusion"],
                        sigma_pixel=cfg["synth.sigma_pixel"])
    master = rng_for(seed, "synth/master")
    frames, entries = [], []
    disagreements = 0
    for s in range(cfg["synth.scenes"]):
        scene_seed = int(master.integers(0, 2 ** 31))
        landmarks = generate_scene(scene_cfg, scene_seed)
        origin = np.array([s * cfg["synth.scene_spacing"], 0.0, 0.0])
        for lm in landmarks:
            lm.position = lm.position + origin
        gap = cfg["synth.camera_gap"]
        cam_a = standard_camera(position=origin + [-0.5 * gap, 1.5, 0.0])
        cam_b = standard_camera(position=origin + [0.5 * gap, 1.5, 0.0])
        fa, fb = render_views(landmarks, cam_a, cam_b, noise, scene_seed,
                              frame_ids=("s%03d/a" % s, "s%03d/b" % s))
        pair_rng = rng_for(scene_seed, "pair-subsample")
        pairs, disagree = ground_truth_pairs(
            fa, fb, tau_match=cfg["synth.tau_match"],
            max_pairs=cfg["synth.max_pairs"], rng=pair_rng)
        disagreements += disagree
        frames.extend([fa, fb])
        entries.extend(pairs)
    save_dataset(out_dir, frames, entries)
    matched = sum(1 for e in entries if e.label == 1)
    _write_report(out_dir, "synth_report.json", {
        "scenes": cfg["synth.scenes"],
        "frames": len(frames),
        "patches": sum(len(f.patches) for f in frames),
        "pairs": len(entries),
        "matched": matched,
        "unmatched": len(entries) - matched,
        "label_disagreements": disagreements,
    }, cfg, seed)
    print("wrote %d frames, %d pairs to %s" % (len(frames), len(entries),
                                               out_dir))
    return 0


def cmd_train(cfg, seed, out_dir, args):
    _, corpus = _load_corpus(args.data)
    model = init_model(ModelConfig.from_config(cfg), seed)
    tc = TrainConfig.from_config(cfg, seed)
    model, history = train(corpus, model, tc)
    ckpt = os.path.join(out_dir, "model.json")
    save_model(ckpt, model)
    _write_csv(out_dir, "loss_history.csv", ["epoch", "loss"],
               [(i + 1, "%.10f" % v) for i, v in enumerate(history)])
    _write_report(out_dir, "train_report.json", {
        "checkpoint": ckpt,
        "epochs": len(history),
        "first_loss": history[0],
        "final_loss": history[-1],
        "pairs": len(corpus.rows),
    }, cfg, seed)
    print("final loss %.6f after %d epochs; checkpoint at %s"
          % (history[-1], len(history), ckpt))
    return 0


def cmd_eval(cfg, seed, out_dir, args):
    _, corpus = _load_corpus(args.data)
    if args.perfect_oracle:
        model, scorer = None, OracleScorer()
    else:
        model, scorer = load_model(args.checkpoint), None
    metrics = evaluate(corpus, model, gamma=cfg["model.gamma"], scorer=scorer)
    _write_csv(out_dir, "eval_pairs.csv",
               ["patch_a", "patch_b", "label", "score", "decision"],
               [(r[0].patch_id, r[2].patch_id, r[4], "%.10f" % s,
                 int(s > cfg["model.gamma"]))
                for r, s in zip(corpus.rows, metrics["scores"])])
    _write_csv(out_dir, "metrics.csv", ["metric", "value"],
               [(k, metrics[k]) for k in ("precision", "recall", "f1", "auc",
                                          "tp", "fp", "fn", "tn")])
    summary = {k: v for k, v in metrics.items()
               if k not in ("scores", "labels")}
    summary["pairs"] = len(corpus.rows)
    summary["perfect_oracle"] = bool(args.perfect_oracle)
    _write_report(out_dir, "eval_report.json", summary, cfg, seed)
    print("precision=%.4f recall=%.4f f1=%.4f auc=%.4f on %d pairs"
          % (metrics["precision"], metrics["recall"], metrics["f1"],
             metrics["auc"], len(corpus.rows)))
    return 0


def cmd_match(cfg, seed, out_dir, args):
    frames, _ = _load_corpus(args.data)
    by_id = {f.frame_id: f for f in frames}
    missing = [fid for fid in (args.frame_a, args.frame_b) if fid not in by_id]
    if missing:
        raise ValueError("frame id(s) not in dataset: %s (have: %s)"
                         % (", ".join(missing),
                            ", ".join(sorted(by_id) or ["none"])))
    model = load_model(args.checkpoint)
    fa, fb = by_id[args.frame_a], by_id[args.frame_b]
    scores = score_matrix(fa, fb, model)
    gamma = cfg["model.gamma"]
    rows = []
    for i, pa in enumerate(fa.patches):
        for j, pb in enumerate(fb.patches):
            s = scores[i, j]
            rows.append((pa.patch_id, pb.patch_id, "%.10f" % s,
                         int(s > gamma)))
    _write_csv(out_dir, "matches.csv",
               ["patch_a", "patch_b", "score", "decision"], rows)
    _write_report(out_dir, "match_report.json", {
        "frame_a": args.frame_a, "frame_b": args.frame_b,
        "pairs": len(rows),
        "accepted": sum(int(r[3]) for r in rows),
    }, cfg, seed)
    print("scored %d patch pairs between %s and %s"
          % (len(rows), args.frame_a, args.frame_b))
    return 0


def cmd_ablate(cfg, seed, out_dir, args):
    _, corpus_train = _load_corpus(args.data)
    _, corpus_test = _load_corpus(args.test_data or args.data)
    tc = TrainConfig.from_config(cfg, seed)
    scorers = []
    for pairing in PAIRINGS:
        model = init_model(ModelConfig.from_config(cfg), seed)
        scorers.append(VariantScorer(model, pairing, "bilinear", seed=seed))
        train(corpus_train, model, tc, scorer=scorers[-1])
    # cosine and l2 train nothing: they score on the flagship model
    scorers += [VariantScorer(scorers[0].model, pairing, disc)
                for pairing in PAIRINGS for disc in ("cosine", "l2")]
    header = ["pairing", "discriminator", "auc", "f1", "precision", "recall"]
    rows = []
    for scorer in scorers:
        metrics = evaluate(corpus_test, scorer.model, scorer=scorer)
        rows.append(dict(zip(header, [scorer.pairing, scorer.discriminator]
                             + [metrics[k] for k in header[2:]])))
    _write_csv(out_dir, "ablation.csv", header,
               [[r["pairing"], r["discriminator"]]
                + ["%.6f" % r[k] for k in header[2:]] for r in rows])
    _write_report(out_dir, "ablation_report.json", {
        "rows": rows,
        "train_pairs": len(corpus_train.rows),
        "test_pairs": len(corpus_test.rows),
    }, cfg, seed)
    print("wrote %d ablation rows" % len(rows))
    return 0


def cmd_place(cfg, seed, out_dir, args):
    frames, _ = _load_corpus(args.data)
    for f in frames:
        if not f.patches:
            print("warning: frame %s has no patches; left out of place "
                  "recognition" % f.frame_id, file=sys.stderr)
    frames = [f for f in frames if f.patches]
    if len(frames) < 2:
        raise ValueError("place recognition needs at least two frames "
                         "with patches")
    model = load_model(args.checkpoint)
    pairs = [(frames[i], frames[j]) for i in range(len(frames))
             for j in range(i + 1, len(frames))]
    report = place_recognition_eval(
        pairs, model,
        threshold=None if cfg["place.tune"] else cfg["place.gamma_f"],
        seed=seed, dustbin=cfg["place.dustbin"], tau=cfg["place.tau"],
        iterations=cfg["place.iters"], radius=cfg["place.radius"])
    _write_csv(out_dir, "place_pairs.csv",
               ["frame_a", "frame_b", "score", "decision", "same_place"],
               [(fa, fb, "%.10f" % s, d, y)
                for (fa, fb, s, d, y) in report.rows])
    _write_report(out_dir, "place_report.json", {
        "f1": report.f1, "accuracy": report.accuracy,
        "threshold": report.threshold,
        "evaluated_pairs": len(report.rows),
        "total_pairs": len(pairs),
        "sinkhorn_max_residual": report.sinkhorn_max_residual,
    }, cfg, seed)
    if report.sinkhorn_max_residual > SINKHORN_RESIDUAL_TOL:
        # at a strongly negative dustbin the residual falls only as about
        # 0.5 / iterations, so more iterations alone barely help there
        print("warning: Sinkhorn marginals off by up to %.3g (tolerance %g) "
              "within the place.iters cap of %d; raise place.iters, or "
              "place.dustbin if it is far below the scores"
              % (report.sinkhorn_max_residual, SINKHORN_RESIDUAL_TOL,
                 cfg["place.iters"]), file=sys.stderr)
    print("place recognition f1=%.4f accuracy=%.4f (threshold %.4f)"
          % (report.f1, report.accuracy, report.threshold))
    return 0


def cmd_stereo(cfg, seed, out_dir, args):
    rng = rng_for(seed, "stereo/landmarks")
    landmarks = [Landmark3D(
        landmark_id="lm%03d" % i,
        landmark_class=LANDMARK_CLASSES[i % len(LANDMARK_CLASSES)],
        position=np.array([rng.uniform(-6.0, 6.0), rng.uniform(0.5, 4.0),
                           rng.uniform(cfg["stereo.depth_min"],
                                       cfg["stereo.depth_max"])]),
        appearance_seed=int(rng.integers(0, 2 ** 31)))
        for i in range(cfg["stereo.landmarks"])]
    baseline = cfg["stereo.baseline"]
    cam_l = standard_camera(position=(0.0, 0.0, 0.0))
    cam_r = standard_camera(position=(baseline, 0.0, 0.0))
    noise = NoiseConfig(sigma_loc=0.0, occlusion_prob=0.0,
                        sigma_pixel=cfg["synth.sigma_pixel"])
    left, right = render_views(landmarks, cam_l, cam_r, noise, seed)
    geometry = StereoGeometry(fx=cam_l.fx, baseline=baseline)
    if cfg["stereo.oracle_match"]:
        scorer, model = OracleScorer(), None
    else:
        scorer, model = None, load_model(args.checkpoint)
    estimates = estimate_depths(left, right, model, geometry,
                                threshold=cfg["stereo.gamma"], scorer=scorer)
    truth = {lm.landmark_id: float(lm.position[2]) for lm in landmarks}
    right_lm = {p.patch_id: p.landmark_id for p in right.patches}
    rows, sq_errors = [], []
    for est in estimates:
        true_z = truth.get(right_lm.get(est.right_id))
        err = None
        if est.valid and true_z is not None:
            err = abs(est.depth - true_z)
            sq_errors.append(err ** 2)
        rows.append((est.left_id, est.right_id, "%.6f" % est.score,
                     "%.6f" % est.disparity, int(est.valid),
                     "%.6f" % est.depth if est.valid else "",
                     "%.6f" % true_z if true_z is not None else "",
                     "%.6f" % err if err is not None else ""))
    rmse = float(np.sqrt(np.mean(sq_errors))) if sq_errors else None
    _write_csv(out_dir, "stereo.csv",
               ["left_patch", "right_patch", "score", "disparity_px",
                "valid", "depth_m", "true_depth_m", "abs_error_m"], rows)
    _write_report(out_dir, "stereo_report.json", {
        "landmarks": len(landmarks),
        "estimates": len(estimates),
        "valid": sum(1 for e in estimates if e.valid),
        "rmse_m": rmse if rmse is not None else "no valid estimates",
        "baseline_m": baseline,
        "fx_px": cam_l.fx,
    }, cfg, seed)
    print("estimated %d depths (rmse %s)"
          % (len(estimates), "%.6f m" % rmse if rmse is not None else "n/a"))
    return 0


def cmd_verify_theory(cfg, seed, out_dir, args):
    report = run_bound_checks(seed,
                              kl_models=cfg["theory.kl_models"],
                              scaling_models=cfg["theory.scaling_models"],
                              tv_models=cfg["theory.tv_models"])
    scaling = report["perturbation_scaling"]
    ok = (report["kl_bound"]["all_pass"]
          and report["tv_bound"]["all_pass"]
          and report["tv_bound"]["ideal_tv_exactly_one"]
          and scaling["all_second_order_nonpositive"]
          and all(0.9 <= s <= 1.1 for s in scaling["slopes_generic"])
          and all(1.8 <= s <= 2.2 for s in scaling["slopes_optimal"]))
    report = dict(report)
    report["all_pass"] = ok
    path = _write_report(out_dir, "theory_report.json", report, cfg, seed)
    print("theory checks: %s (report at %s)"
          % ("all bounds hold" if ok else "FAILED", path))
    return 0 if ok else 1


# -- argument parsing ---------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="patchgraph",
        description="Landmark patch matching: data, training, evaluation, "
                    "applications, and bound verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=False, needs_checkpoint=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<command>)")
        if needs_data:
            p.add_argument("--data", required=True,
                           help="dataset directory with manifest.jsonl")
        if needs_checkpoint:
            p.add_argument("--checkpoint",
                           help="model checkpoint from the train command")

    common(sub.add_parser("synth", help="generate a synthetic dataset"))
    common(sub.add_parser("train", help="train a matching model"),
           needs_data=True)
    p_eval = sub.add_parser("eval", help="evaluate pair matching")
    common(p_eval, needs_data=True, needs_checkpoint=True)
    p_eval.add_argument("--perfect-oracle", action="store_true",
                        help="score with ground-truth labels (debug)")
    p_match = sub.add_parser("match", help="score two frames' patch pairs")
    common(p_match, needs_data=True, needs_checkpoint=True)
    p_match.add_argument("--frame-a", required=True)
    p_match.add_argument("--frame-b", required=True)
    p_ablate = sub.add_parser("ablate", help="embedding/discriminator grid")
    common(p_ablate, needs_data=True)
    p_ablate.add_argument("--test-data", default=None,
                          help="held-out dataset (defaults to --data)")
    common(sub.add_parser("place", help="frame-level place recognition"),
           needs_data=True, needs_checkpoint=True)
    common(sub.add_parser("stereo", help="stereo landmark depth"),
           needs_checkpoint=True)
    common(sub.add_parser("verify-theory",
                          help="check the information bounds numerically"))
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "match": cmd_match,
    "ablate": cmd_ablate,
    "place": cmd_place,
    "stereo": cmd_stereo,
    "verify-theory": cmd_verify_theory,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print("config error:", file=sys.stderr)
        for p in exc.problems:
            print("  - " + p, file=sys.stderr)
        return 2
    needs_ckpt = args.command in ("eval", "match", "place", "stereo")
    if needs_ckpt and getattr(args, "checkpoint", None) is None:
        oracle_ok = ((args.command == "eval" and args.perfect_oracle)
                     or (args.command == "stereo"
                         and cfg["stereo.oracle_match"]))
        if not oracle_ok:
            print("error: --checkpoint is required for %s" % args.command,
                  file=sys.stderr)
            return 2
    out_dir = args.out or os.path.join("runs", args.command)
    try:
        return _COMMANDS[args.command](cfg, args.seed, out_dir, args)
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
