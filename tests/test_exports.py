"""Export lists: every listed name resolves, and re-exports are shared."""

import importlib
import pkgutil

import pytest

import grouptensor

MODULES = [
    importlib.import_module(f"grouptensor.{info.name}")
    for info in pkgutil.iter_modules(grouptensor.__path__)
]


def _exports(module):
    """A module's ``__all__``, or else the public names it defines."""
    if hasattr(module, "__all__"):
        return module.__all__
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
    ]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_module_exports_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_are_the_module_objects():
    owners = {}
    for module in MODULES:
        for name in _exports(module):
            owners[name] = getattr(module, name)
    for name in grouptensor.__all__:
        assert hasattr(grouptensor, name), name
        assert name in owners, f"{name} is exported by no module"
        assert getattr(grouptensor, name) is owners[name], name
