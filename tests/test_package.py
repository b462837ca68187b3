"""The package namespace: one list of public names, kept by the layer modules."""

import importlib
import inspect
import json
import subprocess
import sys

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


def fresh_interpreter(code):
    """The JSON value `code` prints on its last line, run in a fresh
    interpreter (this process has imported every layer already)."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_no_layer():
    # the package alone, then the CLI module, which needs no layer
    loaded = fresh_interpreter(
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('collapse_lab.'))\n"
        "import collapse_lab\n"
        "package = loaded()\n"
        "from collapse_lab import cli\n"
        "print(json.dumps([package, loaded()]))\n"
    )
    assert loaded == [[], ["collapse_lab.cli"]]


@pytest.mark.parametrize("module", [m for m in LAYERS if m != "rng"] + ["_kernels", "cli"])
def test_domain_error_is_one_class(module):
    # the CLI maps DomainError to exit 2 or 3: every layer raises the package's
    module = importlib.import_module(f"collapse_lab.{module}")
    assert module.DomainError is collapse_lab.DomainError


def test_star_import_binds_every_public_name():
    unbound = fresh_interpreter(
        "import json\n"
        "from collapse_lab import *\n"
        "import collapse_lab\n"
        "print(json.dumps([n for n in collapse_lab.__all__\n"
        "                  if globals().get(n) is not getattr(collapse_lab, n)]))\n"
    )
    assert unbound == []
