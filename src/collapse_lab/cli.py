"""Command-line runner: config ingestion, experiment orchestration, output.

Usage:
    collapse-lab <experiment> --config <path> [--seed N] [--out <path>]
                 [--format csv|json]
    collapse-lab validate --config <path>
    collapse-lab -h | --help
<experiment> is collapse, ensemble, measurement, records, spin or decay.  A
flag takes its value as the next argument or after "=" (--config=<path>), at
most once, and only spelled in full.

`main` reads these two shapes itself, with no argparse: `-h` or `--help`
anywhere prints the usage block above to stdout and returns 0; any other
argument error (an unknown command or flag, a flag `validate` does not take,
a missing `--config` or value, a repeated flag, a `--format` other than csv or
json) prints the usage and a one-line reason to stderr and returns 2, before
any config is read.

Configs are INI files with a single section named after the experiment.  All
physical inputs are in natural units (hbar = 1); lambda carries units
energy^-2 time^-1, so the smearing width T_cal = sqrt(lambda*t) is a time.

Each experiment is one `collapse_lab.Experiment` record (config schema,
build of the library objects with the cross-key checks, array estimate,
T_cal and runner) in the `EXPERIMENTS` of the layer its runner computes
with: `collapse` and `ensemble` in `ensemble`, each other one in its own
module, and the k-grid parts of `decay` in `kgrid`.  `EXPERIMENTS` here
names that layer by section, and a config imports only its own, so a run
compiles only its own experiment.  The collapse, ensemble and k-grid
runners give a numpy array, computed with numpy's overflow, invalid value
and division by zero raised as errors; the four closed-form runs, `spin`,
`records`, `measurement` and closed `decay`, give rows of floats.  This
module holds what every experiment shares: argument and config parsing, the
array cap, the writers and the summary envelope.

A run uses one BLAS thread: the module sets OPENBLAS_NUM_THREADS to 1 when
it is imported, before any run that uses numpy imports it, unless the
variable is already set, in which case the user's value holds.

Outputs: a data table (CSV by default, one leading t or x abscissa column,
floats at 17 significant digits so they round-trip exactly) and a JSON
summary with the resolved parameters, seed, version, the versions of python
and of numpy where the run loaded it, and key scalars.  The data table is
byte-identical across reruns with the same config and seed; the summary
additionally records wall time.

The process entry, `entry` (the `collapse-lab` script and `python -m
collapse_lab.cli`), freezes the collector once `main` has returned, so the
interpreter's exit skips its final passes over every object the run made.

Exit codes (README lists every case): 0 success (and `--help`), 2 argument
or configuration error (an argument error, a bad key or value, a model its
layer refuses, an --out outside an existing directory or one that cannot be
written, or arrays above MAX_ARRAY_BYTES), 3 numerical-contract violation
(a non-finite result, a numpy floating-point error, a `math` overflow,
division by zero or domain error, a k-grid Chebyshev series that does not
truncate).  `validate` builds the same model objects the run
uses, so it refuses exactly the configs a run refuses with exit 2.
"""

from __future__ import annotations

import configparser
import gc
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

# set before any run imports numpy, which loads OpenBLAS: no run's BLAS calls
# use a second thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import ConfigError, DomainError, Experiment, __version__, _parser
from . import _np as np

__all__ = ["main", "ConfigError", "ExperimentConfig"]

_seed = _parser(int, lambda v: 0 <= v < 2**64, "be a 64-bit unsigned integer")

#: the layer module whose `EXPERIMENTS` holds each experiment's record, by
#: config section, in the order the CLI lists them
EXPERIMENTS = {"collapse": "ensemble", "ensemble": "ensemble",
               "measurement": "measurement", "records": "records",
               "spin": "spin", "decay": "decay"}

#: cap on the estimated peak array memory of one run (2 GiB); a config whose
#: estimate (`Experiment.array_bytes`) exceeds it exits 2, naming the key,
#: before the runner is asked for the arrays
MAX_ARRAY_BYTES = 2**31
#: values formatted and written at a time by the output writers (about 1 MB
#: of row text), so the text never holds the whole table
_WRITE_VALUES = 2**13
#: the writers' peak: one block of values as Python floats and text (at most
#: 165 bytes a value under tracemalloc, charged as 192)
_WRITE_BYTES = 192 * _WRITE_VALUES


def experiment_record(section) -> Experiment:
    """The record of a config section, from its layer module, imported here."""
    module = importlib.import_module(f"{__package__}.{EXPERIMENTS[section]}")
    return module.EXPERIMENTS[section]


class ExperimentConfig:
    """Validated experiment parameters and their `model`: the library objects
    the experiment's `build` makes on construction; the run uses them as
    built."""

    def __init__(self, experiment, parameters, master_seed=0):
        self.experiment = experiment
        self.parameters = parameters
        self.master_seed = master_seed
        spec = experiment_record(experiment)
        self.model = spec.build(parameters)
        sizes = spec.array_bytes(parameters, self.model)
        total = sum(sizes.values()) + _WRITE_BYTES
        if total > MAX_ARRAY_BYTES:
            raise ConfigError(f"key {max(sizes, key=sizes.get)} asks for about "
                              f"{total / 2**30:.3g} GiB of arrays, above the "
                              f"{MAX_ARRAY_BYTES / 2**30:g} GiB cap")

    @classmethod
    def from_file(cls, path, experiment=None) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        sections = parser.sections()
        if len(sections) != 1:
            raise ConfigError(f"config must contain exactly one experiment section, "
                              f"found {sections}")
        section = sections[0]
        if section not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment section [{section}]")
        if experiment is not None and section != experiment:
            raise ConfigError(f"config section [{section}] does not match experiment "
                              f"{experiment!r}")
        schema = {**experiment_record(section).schema, "seed": (_seed, False, 0)}
        raw = dict(parser[section])
        for key in raw:
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        params = {}
        for key, (parse, required, default) in schema.items():
            if key in raw:
                try:
                    params[key] = parse(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
            elif required:
                raise ConfigError(f"missing required key '{key}' in [{section}]")
            else:
                params[key] = default
        seed = params.pop("seed")
        return cls(section, params, master_seed=seed)


# --- output -----------------------------------------------------------------


#: one table value: a float at 17 significant digits, which round-trips exactly
_FMT = "{:.17g}"


def _row_blocks(table, sep, head="", tail=""):
    """The table's rows as text, `_WRITE_VALUES` values at a time: each row is
    head, its values as `_FMT` joined by sep, and tail, in one `str.format`
    (a format call per value took a fifth longer on 3e6 values).  A numpy
    table becomes Python floats a block at a time, never whole."""
    width = len(table[0])
    fmt = (head + sep.join([_FMT] * width) + tail).format
    n = max(1, _WRITE_VALUES // width)
    for i in range(0, len(table), n):
        rows = table[i:i + n]
        yield [fmt(*row) for row in (rows.tolist() if hasattr(rows, "tolist") else rows)]


def write_csv(path, cols, table):
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for rows in _row_blocks(table, ","):
            f.write("\n".join(rows) + "\n")


def write_json(path, doc, cols, table):
    """`doc` with "columns" and "rows" (the table, at least one row, as `_FMT`
    strings) added, byte for byte as `json.dumps(indent=2)` would write it,
    the rows streamed."""
    head = _dumps({**doc, "columns": cols, "rows": []})
    with open(path, "w") as f:
        f.write(head.removesuffix("[]\n}") + "[\n")
        sep = ""
        for rows in _row_blocks(table, '",\n      "', '    [\n      "', '"\n    ]'):
            f.write(sep + ",\n".join(rows))
            sep = ",\n"
        f.write("\n  ]\n}\n")


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, default=float, allow_nan=False)


def _check_finite(cols, table, summary):
    """No run may report a non-finite number as a result."""
    for key, v in summary.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"summary scalar {key!r} is not finite: {v}")
    if hasattr(table, "tolist"):  # a numpy table, whose runner loaded numpy
        bad = np.argwhere(~np.isfinite(table))
        j = bad[0][1] if len(bad) else None
    else:
        j = next((j for row in table for j, v in enumerate(row)
                  if not math.isfinite(v)), None)
    if j is not None:
        raise DomainError(f"column {cols[j]!r} holds non-finite values")


def run(cfg: ExperimentConfig, output_path=None, output_format="csv") -> int:
    start = time.perf_counter()
    cols, table, summary = experiment_record(cfg.experiment).run(cfg)
    wall = time.perf_counter() - start
    _check_finite(cols, table, summary)
    out = Path(output_path or f"{cfg.experiment}_out.{output_format}")
    # the interpreter's version, and numpy's where it is loaded: no run
    # imports another library
    versions = {"python": ".".join(map(str, sys.version_info[:3]))}
    if (numpy := sys.modules.get("numpy")) is not None:
        versions["numpy"] = numpy.__version__
    doc = {"experiment": cfg.experiment, "parameters": dict(cfg.parameters),
           "seed": cfg.master_seed, "version": f"collapse-lab-v{__version__}",
           "versions": versions, "wall_time_s": wall, "scalars": summary}
    writing = [out]  # the outputs, each added as its writer is called
    try:
        if output_format == "csv":
            write_csv(out, cols, table)
            writing.append(out.with_suffix(".summary.json"))
            writing[-1].write_text(_dumps(doc) + "\n")
        else:
            write_json(out, doc, cols, table)
    except OSError as exc:
        # remove the regular files this run opened: an open that fails names
        # its file, which stays, and so does a device such as /dev/null
        for path in writing[:-1] if exc.filename else writing:
            if path.is_file():
                path.unlink()
        raise ConfigError(f"--out {str(out)!r} cannot be written: {exc}") from exc
    print(f"wrote {out}")
    return 0


def validate(path) -> int:
    cfg = ExperimentConfig.from_file(path)
    tcal = experiment_record(cfg.experiment).t_cal(cfg.parameters)
    if not (tcal is None or math.isfinite(tcal)):
        raise DomainError(f"derived T_cal is not finite: {tcal}")
    print(f"experiment: {cfg.experiment}")
    for key, val in sorted(cfg.parameters.items()):
        print(f"  {key} = {val}")
    print(f"  seed = {cfg.master_seed}")
    if tcal is not None:
        source = "key 't_cal'" if "t_cal" in cfg.parameters else "derived, sqrt(lambda*t)"
        print(f"T_cal ({source}) = {_FMT.format(tcal)}")
    return 0


#: the usage block of the module docstring, printed by `--help` and with every
#: argument error
_USAGE = (__doc__ or "").partition("\n\n")[2].partition("\n\n")[0]
#: the flags each command takes
_FLAGS = {"validate": ("--config",), **dict.fromkeys(
    EXPERIMENTS, ("--config", "--seed", "--out", "--format"))}


class _ArgumentError(Exception):
    """An argument that fits neither shape of the usage."""


def _parse_args(argv):
    """The command and its flags, by name, from the two shapes of the usage."""
    if not argv:
        raise _ArgumentError("no command given")
    command, *rest = argv
    if command not in _FLAGS:
        raise _ArgumentError(f"unknown command {command!r}")
    flags = {}
    rest.reverse()
    while rest:
        flag, eq, value = rest.pop().partition("=")
        if flag not in _FLAGS[command]:
            raise _ArgumentError(f"{command} takes no argument {flag!r}")
        if flag in flags:
            raise _ArgumentError(f"{flag} given twice")
        if not eq:
            if not rest or rest[-1].startswith("--"):
                raise _ArgumentError(f"{flag} needs a value")
            value = rest.pop()
        flags[flag] = value
    if "--config" not in flags:
        raise _ArgumentError("--config is required")
    if flags.setdefault("--format", "csv") not in ("csv", "json"):
        raise _ArgumentError(f"--format must be csv or json, not {flags['--format']!r}")
    return command, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    try:
        command, flags = _parse_args(argv)
    except _ArgumentError as exc:
        print(f"{_USAGE}\nargument error: {exc}", file=sys.stderr)
        return 2
    seed, out = flags.get("--seed"), flags.get("--out")
    try:
        if command == "validate":
            return validate(flags["--config"])
        cfg = ExperimentConfig.from_file(flags["--config"], experiment=command)
        if seed is not None:
            try:
                cfg.master_seed = _seed(seed)
            except ValueError as exc:
                raise ConfigError(f"invalid value for --seed: {exc}") from exc
        if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"--out {out!r} must name a file in an existing directory")
        return run(cfg, out, flags["--format"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"numerical contract violated: overflow: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        # DomainError, numpy's FloatingPointError, and math's
        # ZeroDivisionError and domain error (a ValueError)
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """`main`, then `gc.freeze()`: the interpreter's exit then skips the
    collector's final passes over every object the run made (about 20 ms
    of a run that loaded numpy); atexit handlers and stream flushes still
    run.  The process entry only: `main` itself never freezes, since tests
    call it in-process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
