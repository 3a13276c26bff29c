"""The benchmark's traced run (bench/spans.py) wraps program functions at
the module attributes where their callers look them up.  A rename that
drops one of those names must fail here, not only inside the benchmark."""

import importlib
import importlib.util
import pathlib

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
