"""The package's public names: each module's ``__all__`` and the names that
``wmkit`` re-exports, so that deleting a function cannot leave a stale
export behind; and the README's API quick start, run as written."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import wmkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(wmkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"wmkit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"wmkit.{name}").__all__)
    public = {
        n for n, v in vars(wmkit).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(public - exported) == []


def test_readme_api_quick_start_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.setenv("WMKIT_CALIB_DIR", str(tmp_path))
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].reject is True
