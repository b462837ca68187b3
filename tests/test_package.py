"""The package namespace: one list of public names, kept by the layer modules."""

import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import collapse_lab

LAYERS = ("hilbert", "engine", "rng", "ensemble", "records", "measurement",
          "spin", "decay", "kgrid")


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


def test_readme_references_resolve():
    # every backticked `<layer>.<name>` or `collapse_lab.<layer>.<name>` in
    # the README, the CLI and the kernels counted as layers, names an
    # attribute of that module
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = "|".join(("cli", "_kernels") + LAYERS)
    refs = set(re.findall(rf"`(?:collapse_lab\.)?({modules})\.(\w+)`", readme))
    assert refs
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"collapse_lab.{module}"), name)]
    assert not missing


def fresh_interpreter(code, env=None):
    """The JSON value `code` prints on its last line, run in a fresh
    interpreter (this process has imported every layer already) with the
    environment `env` (this process's by default)."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
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
    # the CLI maps DomainError to exit 2 or 3: every layer raises the package's;
    # and ConfigError to exit 2: every module holding an experiment record (or
    # the k-grid parts of decay's) raises the package's
    from collapse_lab import cli
    name, module = module, importlib.import_module(f"collapse_lab.{module}")
    assert module.DomainError is collapse_lab.DomainError
    if name in {*cli.EXPERIMENTS.values(), "kgrid", "cli"}:
        assert module.ConfigError is collapse_lab.ConfigError


def test_layers_leave_cli_and_blas_threads_alone():
    # no layer imports `cli`, which sets OPENBLAS_NUM_THREADS when imported
    # and, under `python -m collapse_lab.cli`, would be compiled and run a
    # second time, with a second ConfigError
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    loaded = fresh_interpreter(
        "import json, os, sys\n"
        "from collapse_lab import *\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('collapse_lab.')),\n"
        "                  'OPENBLAS_NUM_THREADS' in os.environ]))\n", env)
    assert loaded == [sorted(f"collapse_lab.{m}" for m in ("_kernels",) + LAYERS), False]


def test_layers_load_numpy_at_the_first_array_call():
    # every layer loads with no numpy, and a function loads it where it first
    # computes with an array, not before
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from collapse_lab import *\n"
        "numpy = lambda: 'numpy' in sys.modules\n"
        "before = numpy()\n"
        "smear(lambda t: t, 1.0, 0.0)\n"
        "closed = numpy()\n"
        "smear(lambda t: t, 1.0, 0.5)\n"
        "print(json.dumps([before, closed, numpy()]))\n")
    assert loaded == [False, False, True]


def numpy_imports(node, scope=()):
    """The dotted scope of every statement under `node` importing numpy."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        else:
            modules = [child.module] if isinstance(child, ast.ImportFrom) and not child.level else []
        if any(m.partition(".")[0] == "numpy" for m in modules):
            yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from numpy_imports(child, scope + ((child.name,) if named else ()))


def test_numpy_is_imported_in_one_place():
    # the layers bind the package's lazy `_np`, whose __getattr__ holds the
    # package's one import of numpy
    package = Path(collapse_lab.__file__).parent
    found = [(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope in numpy_imports(ast.parse(path.read_text()))]
    assert found == [("__init__.py", "_Numpy.__getattr__")]


def test_numpy_binding_keeps_what_it_looks_up():
    # a name is looked up in numpy once, then found in the binding itself
    import numpy
    binding = collapse_lab._Numpy()
    assert binding.float64 is numpy.float64
    assert vars(binding) == {"float64": numpy.float64}


def annotated(module):
    """Every function, method and class `module` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                fn = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield fn


@pytest.mark.parametrize("module", ("", ".cli", "._kernels") + tuple(f".{m}" for m in LAYERS),
                         ids=lambda m: m.lstrip(".") or "collapse_lab")
def test_annotations_resolve(module):
    # every annotation names what the module binds when loaded: none names
    # a layer that the module imports only in its functions
    module = importlib.import_module(f"collapse_lab{module}")
    objs = list(annotated(module))
    assert objs
    for obj in objs:
        typing.get_type_hints(obj)


def test_star_import_binds_every_public_name():
    unbound = fresh_interpreter(
        "import json\n"
        "from collapse_lab import *\n"
        "import collapse_lab\n"
        "print(json.dumps([n for n in collapse_lab.__all__\n"
        "                  if globals().get(n) is not getattr(collapse_lab, n)]))\n"
    )
    assert unbound == []


@pytest.mark.parametrize("layer", LAYERS)
def test_importtime_times_every_layer_a_layer_loads(layer):
    # `-X importtime` times the import system's path, not the package's
    # __getattr__ (importlib): a layer loaded through `from . import <layer>`
    # would go unlisted and its time would be charged to the layer that
    # loaded it
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import json, sys, numpy, collapse_lab.{layer}\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('collapse_lab'))))"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")}
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert sorted(timed & set(loaded)) == loaded


#: every parameter record, by class name, and the layer that defines it
RECORDS = {"SpectralState": "hilbert", "ObservableMatrix": "hilbert",
           "DiscreteSpectrum": "hilbert", "DecayModelParams": "decay",
           "KGrid": "kgrid", "KGridResult": "kgrid", "CollapseParams": "engine",
           "BranchSpec": "measurement", "RecordScenario": "records",
           "SpinModelParams": "spin"}


def valid_records():
    """One valid instance of each parameter record."""
    r = {name: getattr(importlib.import_module(f"collapse_lab.{layer}"), name)
         for name, layer in RECORDS.items()}
    levels = (0.0, 1.0)
    spectrum = r["DiscreteSpectrum"]((0.0, 1.0), (0.5, 0.5))
    return {"SpectralState": r["SpectralState"](levels, (0.0, 0.0), (0.0, 0.0)),
            "ObservableMatrix": r["ObservableMatrix"].hamiltonian(levels),
            "DiscreteSpectrum": spectrum,
            "DecayModelParams": r["DecayModelParams"](1.0, 1.0, 1e-4, 0.0, 1.0),
            "KGrid": r["KGrid"](-39.0, 41.0, 64, 5e-4),
            "KGridResult": r["KGridResult"](*[None] * 9),
            "CollapseParams": r["CollapseParams"](1.0),
            "BranchSpec": r["BranchSpec"]((0.0,), (1.0,), (0.0,), (1.0,), 0.6, 0.8),
            "SpinModelParams": r["SpinModelParams"](0.6, 0.8, 3.0, 1e-4, 1.0),
            "RecordScenario": r["RecordScenario"](spectrum, spectrum, 1.0, -1.0, 1.0, 0.0)}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("record, field", [
    ("CollapseParams", "lam"),
    *(("DecayModelParams", f) for f in ("epsilon", "Gamma", "sigma", "x0", "T_cal")),
    *(("KGrid", f) for f in ("k_min", "k_max", "dt")),
    *(("SpinModelParams", f) for f in ("a", "b", "epsilon", "sigma", "T_cal")),
    *(("RecordScenario", f) for f in ("B_plus", "B_minus", "lam", "t0")),
])
def test_parameter_records_refuse_non_finite_fields(record, field, value):
    # a non-finite field would give nan results with no error (sigma1_collapsed
    # and occupation_collapsed returned [nan] for a nan T_cal); `_replace`
    # builds through `_make`, which must check as the constructor does
    with pytest.raises(collapse_lab.DomainError, match="finite"):
        valid_records()[record]._replace(**{field: value})


@pytest.mark.parametrize("record", RECORDS)
def test_records_are_frozen(record):
    # a field cannot be reassigned, and no attribute can be added
    rec = valid_records()[record]
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], rec[0])
    with pytest.raises(AttributeError):
        rec.note = "mutable"
