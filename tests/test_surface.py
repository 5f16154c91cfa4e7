"""The package's declared surface, and the scripts that use it: every demo
and the README library example run in process against the package."""

import re
import runpy
import types
from pathlib import Path

import pytest

import dynheat

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_is_the_public_namespace():
    public = {name for name, value in vars(dynheat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dynheat.__all__) == len(set(dynheat.__all__))
    assert set(dynheat.__all__) == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dynheat import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(dynheat.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    script = tmp_path / "library.py"
    script.write_text(code)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
