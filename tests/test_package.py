"""The package namespace is the union of its modules' `__all__` lists."""

import importlib
import pkgutil

import offload_game


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
