"""The traced benchmark in ``perfbench/`` reaches wmkit by name: its layer
sweep imports public functions, and its tracer wraps functions at the names
the calling modules look them up by.  These tests fail when a change drops
or renames one of those names, or stops calling through it."""

import importlib
import json
from pathlib import Path

import pytest

from wmkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # The benchmark's modules import each other as top-level modules, as
    # perfbench/run.py arranges by putting its directory on sys.path.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _owner_and_leaf(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_sweep_imports(perfbench):
    sweep = importlib.import_module("sweep")
    assert callable(sweep.run)


def test_tracer_installs_and_uninstalls(perfbench):
    targets = [_owner_and_leaf(module, attr) for module, attr, _ in perfbench.TARGETS]
    originals = [getattr(owner, leaf) for owner, leaf in targets]
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        for (owner, leaf), original in zip(targets, originals):
            assert getattr(owner, leaf).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, leaf), original in zip(targets, originals):
        assert getattr(owner, leaf) is original


def test_traced_commands_reach_the_hooked_names(perfbench, tmp_path, monkeypatch):
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path / "calib"))
    key = "9e3779b97f4a7c15:k=2:g=0.5:mode=perm"
    texts = tmp_path / "wm.jsonl"
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        # Through the module attribute, which the tracer wraps as cli.main.
        assert cli.main(["generate", "--model", "markov:seed=11,vocab=32,order=2", "--key", key,
                         "--n", "12", "--seed", "1", "--out", str(texts)]) == 0
        assert cli.main(["detect", "--in", str(texts), "--key", key, "--stat", "hc+",
                         "--out", str(tmp_path / "det.jsonl")]) == 0
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "decoders.generate", "decoders.step", "lm.next", "keying.green_mask",
            "keying.zeta", "keying.permutation", "detection.detect", "detection.extract",
            "keying.is_green", "detection.test", "detection.calib"} <= names
    # A perm-mode green list is built from the keyed permutation.
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "keying.permutation" and s.parent is not None}
    assert "keying.green_mask" in parents
    assert json.loads(texts.read_text())["scheme"] == "mc"
