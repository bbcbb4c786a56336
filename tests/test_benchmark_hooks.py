"""The benchmark's hooks into the package: the names it rebinds and calls.

``perfbench/spans.py`` wraps hawk's layer functions by rebinding module
globals and methods, so a renamed function or a changed signature there is
no error, only a per-layer metric that reads 0 or a hook that raises inside
a traced run. ``perfbench/run.py`` drives the public API. These tests fail
as soon as either loses its footing; nothing under ``perfbench/`` changes.
"""

import ast
import functools
import importlib
from collections import Counter
from pathlib import Path

import pytest

import hawk
import hawk.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``run`` and ``spans`` modules, imported as run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("spans")


def _dotted(node: ast.Attribute) -> list[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def test_run_uses_only_existing_names():
    # run.py reaches the package as ``hawk.<name>`` (also ``self.hawk``) and
    # as ``cli.<name>`` after ``cli = hawk.cli``.
    roots = {"hawk": hawk, "cli": hawk.cli}
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = _dotted(node)
        if chain[:2] == ["self", "hawk"]:
            chain = chain[1:]
        if chain[0] not in roots:
            continue
        target = roots[chain[0]]
        for attr in chain[1:]:
            assert hasattr(target, attr), f"perfbench/run.py uses {'.'.join(chain)}"
            target = getattr(target, attr)
        used.add(".".join(chain))
    assert {"hawk.decode_batch", "cli.build_heads", "hawk.held_out_nll"} <= used


def test_tracer_hooks_every_layer(perfbench, capsys):
    run, spans = perfbench
    workload = run.WORKLOADS["oracle_2x2"]
    checks = run.Checks()
    tracer = spans.Tracer(run.MODES)
    trace_rows = Counter()  # verification steps by mode: the rows of the decodes' traces

    def traced_session(name, fn, *args):
        trace = []
        result = tracer.call(name, functools.partial(fn, trace=trace), *args)
        trace_rows[tracer.mode] += len(hawk.cli._trace_rows(trace))
        return result

    restore = tracer.install()
    try:
        assert "not found" not in capsys.readouterr().out
        setup = run.set_up(hawk, workload, tracer.call)
        run.holdout(hawk, setup, 1, tracer.call)
        batches = run.Batches(hawk, setup, workload, 1, checks)
        for mode in run.MODES:
            tracer.set_mode(mode)
            batches.run(mode, 0, traced_session)
    finally:
        restore()
    assert checks.attempted and not checks.failed

    summary = tracer.summary()
    counters = tracer.counters
    for name in ("cli.build_heads", "models.fit_tabular_draft_heads", "models.sample_grid",
                 "models.held_out_nll", "oracle_metrics.enumerate_joint"):
        assert summary.calls(name) > 0, name
    for mode in run.MODES:
        for name in ("engine.session", "engine.decode_round", "engine.commit_token",
                     "engine.target_dist"):
            assert summary.calls(name, mode) > 0, (name, mode)
        assert counters[("models.conditional", mode)] > 0, mode
    for mode in run.SPECULATIVE:
        for name in ("engine.build_pool", "engine.build_candidate_tree", "engine.draft_dist",
                     "verifier.verify", "core.sample_index"):
            assert summary.calls(name, mode) > 0, (name, mode)
        assert counters[("tree.drawn", mode)] > 0, mode
        # The hook counts a resampling walk's steps as the length of the
        # candidates it was given, so that length must be the live count.
        assert counters[("verify.steps", mode)] == trace_rows[mode] > 0, mode
        assert counters[("models.head_predict", mode)] > 0, mode
    # The resampling path of the verify hook must run too.
    for mode in ("medusa", "hawk"):
        assert counters[("verify.resamples", mode)] > 0, mode
    assert tracer.peaks[("cache.peak_over_capacity", "hawk")] > 0
