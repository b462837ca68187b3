"""The package namespace: one list of public names, kept by the layer modules."""

import importlib
import inspect

import pytest

import collapse_lab

LAYERS = ("hilbert", "engine", "rng", "ensemble", "records", "measurement",
          "spin", "decay")


def test_every_public_name_resolves():
    for name in collapse_lab.__all__:
        assert hasattr(collapse_lab, name), name
    assert len(set(collapse_lab.__all__)) == len(collapse_lab.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_are_re_exported(layer):
    module = importlib.import_module(f"collapse_lab.{layer}")
    assert set(module.__all__) <= set(collapse_lab.__all__)
    for name in module.__all__:
        assert getattr(collapse_lab, name) is getattr(module, name)


@pytest.mark.parametrize("layer", LAYERS)
def test_public_definitions_are_listed(layer):
    # every public function or class a layer defines is in its __all__
    module = importlib.import_module(f"collapse_lab.{layer}")
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)
