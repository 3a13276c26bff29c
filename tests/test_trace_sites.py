"""The benchmark's traced run (bench/spans.py) wraps program functions at
the module attributes where their callers look them up.  A rename that
drops one of those names must fail here, not only inside the benchmark."""

import importlib
import importlib.util
import pathlib

import numpy as np

from patchgraph import matching, placerec
from patchgraph.scene import Frame, PairEntry, Patch, standard_camera

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_site():
    spans = _load_spans()
    cli = importlib.import_module("patchgraph.cli")
    commands = dict(cli._COMMANDS)
    sites = [(importlib.import_module(m), attr) for m, attr, _ in spans.SITES]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr) is not original, (module, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, (module, attr)
    assert cli._COMMANDS == commands


def test_traced_run_sees_the_batched_hot_path():
    """A tiny train/evaluate/place run under the tracer records the graph
    network and the loss, and builds each patch's clique once per ``train``
    call.  The discriminator runs inside ``VariantScorer.operands`` and its
    ``pair``, which the tracer does not wrap, so its time counts as self
    time of ``matching.train``, ``matching.evaluate`` and
    ``placerec.score_matrix``."""
    rng = np.random.default_rng(0)
    frames = []
    for fi, count in enumerate((4, 3, 1)):
        fid = "f%d" % fi
        patches = [Patch("%s/p%d" % (fid, i), fid, (0.0, 0.0, 8.0, 8.0),
                         np.zeros((2, 2), dtype=np.uint8),
                         loc3d=np.array([2.0 * i, 0.0, 10.0]),
                         feature=rng.standard_normal(4))
                   for i in range(count)]
        frames.append(Frame(fid, standard_camera(position=(0.0, 0.0, 0.0)),
                            np.array([5.0 * fi, 0.0, 0.0]), patches))
    entries = [PairEntry("f0/p0", "f1/p0", 1), PairEntry("f0/p1", "f1/p2", 0),
               PairEntry("f0/p1", "f2/p0", 0), PairEntry("f0/p3", "f1/p1", 1)]
    corpus = matching.PairCorpus.from_frames(frames, entries)
    distinct = {(r[i + 1].frame_id, r[i].patch_id)
                for r in corpus.rows for i in (0, 2)}
    model = matching.init_model(matching.ModelConfig(n=4, k=2,
                                                     architecture="gcn"), 0)

    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        matching.train(corpus, model, matching.TrainConfig(
            epochs=3, lr=0.01, batch_size=2, seed=0))
        cliques_in_train = tracer.stats("setup",
                                        "neighbors.graph_for_patch")[0]
        matching.evaluate(corpus, model)
        placerec.place_recognition_eval([(frames[0], frames[1]),
                                         (frames[1], frames[2])], model,
                                        threshold=0.5)
    finally:
        tracer.uninstall()
    assert cliques_in_train == len(distinct)
    for name in ("gnn.embed_graph", "gnn.gcn_layer",
                 "matching.loss_from_scores", "matching.train",
                 "matching.evaluate", "placerec.score_matrix",
                 "placerec.place_recognition_eval"):
        assert tracer.stats("setup", name)[0] > 0, name
