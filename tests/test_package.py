"""The package namespace is the union of its modules' `__all__` lists, it
keeps every name the traced benchmark patches, and its CLI runs as a module."""

import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import offload_game
from offload_game._version import __version__
from offload_game.game import ProfileEvaluator


def public_modules():
    for info in pkgutil.iter_modules(offload_game.__path__):
        module = importlib.import_module(f"offload_game.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_module_export_is_a_package_export():
    modules = list(public_modules())
    assert {m.__name__.rsplit(".", 1)[1] for m in modules} >= {
        "baselines", "dco", "errors", "game", "metrics", "model", "scenario"
    }
    for module in modules:
        for name in module.__all__:
            assert name in offload_game.__all__, f"{module.__name__}.{name}"
            assert getattr(offload_game, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_are_unique_and_bound():
    assert len(offload_game.__all__) == len(set(offload_game.__all__))
    for name in offload_game.__all__:
        assert hasattr(offload_game, name), name


def bench_span_targets():
    """The FUNCTIONS and METHODS lists of bench/spans.py, loaded without the bench's runner."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.FUNCTIONS, module.METHODS


def test_every_name_the_traced_bench_patches_exists():
    """A renamed name would otherwise show up only as a missing layer of a traced bench run."""
    functions, methods = bench_span_targets()
    assert functions and methods
    for _, module, name, _ in functions:
        assert name in vars(importlib.import_module(module)), f"{module}.{name}"
    for _, name, _ in methods:
        assert name in vars(ProfileEvaluator), f"ProfileEvaluator.{name}"


def test_cli_runs_as_a_module():
    """`python -m offload_game.cli` reaches `main`, the console script's target, and exits with its code."""
    src = str(Path(offload_game.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "offload_game.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"offload-game {__version__}\n", "")


def test_pyproject_version_is_the_package_version():
    """pyproject.toml's version is `_version`'s, which config.json and every scenario file record."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'^version\s*=\s*"([^"]*)"', project, re.MULTILINE) == [__version__]
