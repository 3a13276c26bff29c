"""Span tracing from outside the program.

A ``Tracer`` replaces a function with a timing wrapper at the place where its
caller looks it up (``module.attribute``), so the program itself is never
edited.  Each wrapped name records calls, wall time and child time; self
time is wall time minus the time of the wrapped calls nested inside it.
Spans are kept in memory as per-name totals, split into the scope the
workload is in (``setup`` or ``round``), and read out when the run ends.
"""

import time

# (module, attribute, span name).  A function called from several modules is
# wrapped at each lookup site under one span name.
SITES = (
    ("patchgraph.autodiff", "gradients", "autodiff.gradients"),
    ("patchgraph.autodiff", "adam_step", "autodiff.adam_step"),
    ("patchgraph.matching", "graph_for_patch", "neighbors.graph_for_patch"),
    ("patchgraph.matching", "featurize", "features.featurize"),
    ("patchgraph.matching", "embed_graph", "gnn.embed_graph"),
    ("patchgraph.gnn", "gcn_layer", "gnn.gcn_layer"),
    ("patchgraph.gnn", "gat_layer", "gnn.gat_layer"),
    ("patchgraph.matching", "assemble_embeddings",
     "matching.assemble_embeddings"),
    ("patchgraph.matching", "discriminate", "matching.discriminate"),
    ("patchgraph.matching", "loss_from_scores", "matching.loss_from_scores"),
    ("patchgraph.matching", "train", "matching.train"),
    ("patchgraph.cli", "train", "matching.train"),
    ("patchgraph.matching", "evaluate", "matching.evaluate"),
    ("patchgraph.cli", "evaluate", "matching.evaluate"),
    ("patchgraph.cli", "save_model", "matching.save_model"),
    ("patchgraph.cli", "load_model", "matching.load_model"),
    ("patchgraph.placerec", "score_matrix", "placerec.score_matrix"),
    ("patchgraph.placerec", "sinkhorn_assign", "placerec.sinkhorn_assign"),
    ("patchgraph.placerec", "place_recognition_eval",
     "placerec.place_recognition_eval"),
    ("patchgraph.cli", "place_recognition_eval",
     "placerec.place_recognition_eval"),
    ("patchgraph.scene", "render_views", "scene.render_views"),
    ("patchgraph.cli", "render_views", "scene.render_views"),
    ("patchgraph.cli", "save_dataset", "scene.save_dataset"),
    ("patchgraph.cli", "load_dataset", "scene.load_dataset"),
)

# CLI subcommands are looked up in ``cli._COMMANDS``.
CLI_COMMANDS = ("synth", "train", "eval", "place")


class Tracer:
    """Per-name span totals for the current scope."""

    def __init__(self):
        self.scope = "setup"
        self.totals = {}        # (scope, name) -> [calls, wall_s, child_s]
        self.embedded = set()   # (frame id, patch id) embedded
        self._stack = []        # child-time accumulator per open span
        self._restore = []

    def span(self, name):
        """Context manager timing a region under ``name``."""
        return _Span(self, name)

    def _record(self, name, wall, child):
        rec = self.totals.setdefault((self.scope, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += wall
        rec[2] += child
        if self._stack:
            self._stack[-1] += wall

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                tracer._record(name, wall, tracer._stack.pop())

        return traced

    def install(self):
        import importlib

        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            fn = self.wrap(name, original)
            if name == "matching.assemble_embeddings":
                fn = self._count_patches(fn)
            self._restore.append((module, attr, original))
            setattr(module, attr, fn)
        cli = importlib.import_module("patchgraph.cli")
        for command in CLI_COMMANDS:
            original = cli._COMMANDS[command]
            cli._COMMANDS[command] = self.wrap("cli." + command, original)
            self._restore.append((cli._COMMANDS, command, original))

    def _count_patches(self, fn):
        def counted(patch, frame, model):
            self.embedded.add((frame.frame_id, patch.patch_id))
            return fn(patch, frame, model)

        return counted

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore = []

    def stats(self, scope, name):
        """(calls, wall_s, self_s) of ``name`` in ``scope``."""
        calls, wall, child = self.totals.get((scope, name), (0, 0.0, 0.0))
        return calls, wall, wall - child


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._stack.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.start
        self.tracer._record(self.name, wall, self.tracer._stack.pop())
        return False
