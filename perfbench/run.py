"""Cold-CLI benchmark for collapse-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/collapse_lab`` and
``configs``).  Every program run is a fresh ``python -m collapse_lab.cli``
child with ``PYTHONPATH=src``; one child runs at a time (closed loop, one
client).  A "pass" is one workload's invocation set (see `workloads`).

--trace 0 times cold passes until S seconds have gone by, interleaved with
cold ``validate`` runs of the same configs, after one untimed warm-up
invocation, and prints the end-to-end metrics:

  wall_s       median wall time of a pass, children only
  setup_s      median wall time of one cold ``validate`` (import + parse)
  cpu_s        median user + sys time of a pass's children (wait4 rusage)
  peak_rss_mb  median over passes of the largest child ru_maxrss
  work_per_s   the workload's work units per pass divided by wall_s

--trace 1 runs one untraced pass, then, until S seconds have gone by,
passes in a child that wraps each layer module's public functions from
outside and calls ``collapse_lab.cli.main`` (see `traced_cli`), and prints
the per-layer metrics, each the median over the traced passes.

Every invocation's output is checked (`workloads`); a nonzero exit, a
non-finite CSV value, a summary that is not strict JSON, a failed physics
check, or CSV bytes that differ from the first pass count as one failed
invocation.  Nothing is retried.  The last line of standard output is the
JSON result; the lines before it give the environment and a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TOTAL_BUDGET_S = 170.0
SETUP_SAMPLES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "units/s",
}

# per-layer metric -> unit; "<layer>.<fn>.calls|self_s" read the span of that
# name ("kernels." is the `_kernels` module), the rest are computed below
PER_LAYER = {
    "import.collapse_lab_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_integrate_s": "s",
    "cli.main_s": "s",
    "cli.config_parse_s": "s",
    "cli.run_self_s": "s",
    "cli.write_csv_s": "s",
    "cli.output_bytes": "bytes",
    "hilbert.energy_distribution.calls": "count",
    "hilbert.energy_distribution.self_s": "s",
    "hilbert.squared_norm.calls": "count",
    "hilbert.squared_norm.self_s": "s",
    "engine.sample_step.calls": "count",
    "engine.sample_step.self_s": "s",
    "rng.trajectory_rng.calls": "count",
    "rng.trajectory_rng.self_s": "s",
    "rng.variates": "count",
    "ensemble.draw_traj_variates.calls": "count",
    "ensemble.draw_traj_variates.self_s": "s",
    "ensemble.ensemble_expectation_mc.self_s": "s",
    "ensemble.ensemble_density_matrix.calls": "count",
    "ensemble.ensemble_density_matrix.self_s": "s",
    "kernels.traj_collapse_paths.calls": "count",
    "kernels.traj_collapse_paths.self_s": "s",
    "kernels.traj_collapse_paths.level_steps": "count",
    "kernels.kgrid_rk4.self_s": "s",
    "kernels.kgrid_rk4.mode_steps": "count",
    "kernels.kgrid_rk4.ns_per_mode_step": "ns",
    "kernels.kgrid_rk4.bytes_computed": "bytes",
    "decay.integrate_kgrid.self_s": "s",
    "decay.occupation.calls": "count",
    "decay.occupation.self_s": "s",
    "decay.occupation_collapsed.calls": "count",
    "decay.occupation_collapsed.self_s": "s",
    "measurement.branch_weight_ratio.calls": "count",
    "measurement.branch_weight_ratio.self_s": "s",
    "records.record_violation_bound.calls": "count",
    "records.record_violation_bound.self_s": "s",
    "spin.sigma1_standard.calls": "count",
    "spin.sigma1_standard.self_s": "s",
    "spin.sigma1_collapsed.calls": "count",
    "spin.sigma1_collapsed.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}

# cumulative import time of the first listed module that -X importtime shows
# at the top level; `collapse_lab.cli` nests the package import when present
IMPORT_MODULES = {
    "import.collapse_lab_s": ("collapse_lab", "collapse_lab.cli"),
    "import.scipy_special_s": ("scipy.special",),
    "import.scipy_integrate_s": ("scipy.integrate",),
}


class SetupError(Exception):
    """The benchmark cannot run here: the working directory is no checkout."""


# --- child processes --------------------------------------------------------


@dataclass
class Child:
    """Outcome of one child process: exit code, wall time and rusage."""

    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(cmd, env, cwd, timeout) -> Child:
    """Run `cmd` to completion; time it and read its rusage with wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        done = threading.Event()

        def kill():
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


class Bench:
    """One benchmark run: environment, budget and failure accounting."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, args) -> Child:
        return run_child([sys.executable, *args], self.env, self.workdir,
                         self.remaining())

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def cli(self, args) -> Child:
        return self.child(["-m", "collapse_lab.cli", *args])

    def validate(self, config: Path) -> Child:
        res = self.cli(["validate", "--config", str(config)])
        self.record(res.code == 0, f"validate {config.name}: exit {res.code} "
                                   f"{res.stderr.strip()[-300:]}")
        return res

    def check_outputs(self, invocations, reference, label, code=0, stderr=""):
        """Check each invocation's outputs and compare CSV bytes to `reference`."""
        for inv in invocations:
            problems = [] if code == 0 else [f"exit {code}: {stderr.strip()[-300:]}"]
            if not problems:
                problems = workloads.check_invocation(inv)
            if not problems:
                data = inv.out.read_bytes()
                ref = reference.setdefault(inv.out.name, data)
                if data != ref:
                    problems = ["CSV bytes differ from the first pass"]
            self.record(not problems, f"{label} {inv.experiment}: {'; '.join(problems)}")

    @staticmethod
    def clear_outputs(invocations):
        for inv in invocations:
            for path in (inv.out, inv.out.with_suffix(".summary.json")):
                path.unlink(missing_ok=True)

    def run_pass(self, invocations, seed, reference, label):
        """Run invocations untraced, one child each; return (wall, cpu, maxrss_kb)."""
        self.clear_outputs(invocations)
        wall = cpu = 0.0
        rss = 0
        for inv in invocations:
            res = self.cli(inv.argv(seed))
            wall += res.wall
            cpu += res.cpu
            rss = max(rss, res.maxrss_kb)
            self.check_outputs([inv], reference, label, res.code, res.stderr)
        return wall, cpu, rss

    def probe(self):
        """Environment and -X importtime cumulative times from a cold child."""
        res = self.child(["-X", "importtime", str(HERE / "probe.py")])
        ok = res.code == 0
        self.record(ok, f"probe: exit {res.code} {res.stderr.strip()[-300:]}")
        env = json.loads(res.stdout.strip().splitlines()[-1]) if ok else {}
        return env, parse_importtime(res.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Module -> cumulative import seconds from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1].strip())
        except ValueError:
            continue  # the header line
        out.setdefault(parts[2].strip(), cumulative * 1e-6)
    return out


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


# --- the two modes ----------------------------------------------------------


def setup_configs(wl):
    configs = [inv.config for inv in wl.invocations]
    n = max(SETUP_SAMPLES, len(configs))
    return [configs[i % len(configs)] for i in range(n)]


def warm_up(bench: Bench, wl, reference):
    """One untimed invocation, so byte-code and page caches are filled."""
    bench.run_pass(wl.invocations[:1], wl.seed, reference, "warm-up")


def end_to_end(bench: Bench, wl, seconds: int, report):
    reference: dict[str, bytes] = {}
    warm_up(bench, wl, reference)
    setups = setup_configs(wl)
    setup_walls, passes = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        need_pass = not passes or elapsed < seconds
        if not setups and not need_pass:
            break
        if setups:
            setup_walls.append(bench.validate(setups.pop(0)).wall)
        if need_pass:
            last = passes[-1][0] if passes else 0.0
            if passes and bench.remaining() < 2.0 * last + 10.0:
                break
            passes.append(bench.run_pass(wl.invocations, wl.seed, reference,
                                         f"pass {len(passes) + 1}"))
    median = statistics.median
    wall = median([p[0] for p in passes])
    metrics = {
        "wall_s": wall,
        "setup_s": median(setup_walls),
        "cpu_s": median([p[1] for p in passes]),
        "peak_rss_mb": median([p[2] for p in passes]) / 1024.0,
        "work_per_s": wl.work_units / wall,
    }
    tail = tail_percentile(len(passes))
    report(f"passes: {len(passes)} timed in {time.perf_counter() - start:.1f} s; "
           f"validate runs: {len(setup_walls)}; tail percentile: "
           + (f"p{tail:g}" if tail else "none (needs >= 20 samples)"))
    report(f"pass walls (s): {[round(p[0], 4) for p in passes]}")
    report(f"setup walls (s): {[round(w, 4) for w in setup_walls]}")
    report(f"work per pass: {wl.work_units} {wl.unit}; work_per_s is {wl.unit}/s")
    return metrics


def _span(doc, name):
    return doc["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def layer_values(doc, output_bytes) -> dict[str, float]:
    """Per-layer metrics of one traced pass (import and overhead excluded)."""
    counters = doc["counters"]
    main = _span(doc, "cli.main")
    vals = {
        "cli.main_s": main["total_s"],
        "cli.config_parse_s": _span(doc, "cli.ExperimentConfig.from_file")["self_s"],
        "cli.run_self_s": sum(s["self_s"] for n, s in doc["spans"].items()
                              if n.startswith("cli.runner.")),
        "cli.write_csv_s": _span(doc, "cli.write_csv")["self_s"],
        "cli.output_bytes": output_bytes,
        "rng.variates": counters.get("rng.variates", 0),
        "trace.span_coverage": (1.0 - main["self_s"] / main["total_s"]
                                if main["total_s"] > 0 else 0.0),
    }
    for metric in PER_LAYER:
        if metric in vals:
            continue
        span, _, field = metric.rpartition(".")
        if span.startswith("kernels."):
            span = "_" + span
        if field in ("calls", "self_s"):
            vals[metric] = _span(doc, span)[field]
        elif f"{span}.{field}" in counters:
            vals[metric] = counters[f"{span}.{field}"]
    for counter in ("kernels.kgrid_rk4.mode_steps", "kernels.kgrid_rk4.bytes_computed",
                    "kernels.traj_collapse_paths.level_steps"):
        vals.setdefault(counter, 0)
    mode_steps = vals["kernels.kgrid_rk4.mode_steps"]
    vals["kernels.kgrid_rk4.ns_per_mode_step"] = (
        vals["kernels.kgrid_rk4.self_s"] * 1e9 / mode_steps if mode_steps else 0.0)
    return vals


def per_layer(bench: Bench, wl, seconds: int, report):
    start = time.perf_counter()
    reference: dict[str, bytes] = {}
    warm_up(bench, wl, reference)
    setup_wall = sum(bench.validate(inv.config).wall for inv in wl.invocations)
    untraced_wall = bench.run_pass(wl.invocations, wl.seed, reference, "untraced")[0]
    plan = bench.workdir / "plan.json"
    plan.write_text(json.dumps([inv.argv(wl.seed) for inv in wl.invocations]))
    passes, docs = [], []
    attempts = 0
    while not attempts or time.perf_counter() - start < seconds:
        if attempts and bench.remaining() < 2.0 * untraced_wall + 15.0:
            break
        attempts += 1
        bench.clear_outputs(wl.invocations)
        spans_path = bench.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        res = bench.child([str(HERE / "traced_cli.py"), str(plan), str(spans_path)])
        bench.check_outputs(wl.invocations, reference, f"traced pass {len(passes) + 1}",
                            res.code, res.stderr)
        if res.code != 0:
            continue
        doc = json.loads(spans_path.read_text())
        out_bytes = sum(p.stat().st_size for inv in wl.invocations
                        for p in (inv.out, inv.out.with_suffix(".summary.json")))
        docs.append(doc)
        passes.append(layer_values(doc, out_bytes))
    env_info, imports = bench.probe()
    metrics = {}
    for metric in PER_LAYER:
        if metric in IMPORT_MODULES:
            metrics[metric] = max(imports.get(m, 0.0) for m in IMPORT_MODULES[metric])
        elif metric != "trace.overhead_s":
            metrics[metric] = statistics.median(p[metric] for p in passes) if passes else 0.0
    untraced_compute = untraced_wall - setup_wall
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - untraced_compute
    if docs:
        spans = docs[len(docs) // 2]["spans"]
        ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
        report(f"traced passes: {len(passes)}; absent spans: {docs[0]['absent']}")
        report("top self times (one traced pass): " + ", ".join(
            f"{n} {s['self_s']:.3f}s/{s['calls']}" for n, s in ranked[:8]))
        report("top total times: " + ", ".join(
            f"{n} {s['total_s']:.3f}s" for n, s in
            sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])[:8]))
    report(f"untraced pass wall {untraced_wall:.4f} s, validate runs {setup_wall:.4f} s")
    return metrics, env_info, imports


# --- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not 1 <= args.seconds <= 150:
        parser.error("--seconds must lie in [1, 150]")
    return args


def find_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "collapse_lab" / "cli.py").is_file():
        raise SetupError(f"{root} is not a collapse-lab checkout (no src/collapse_lab)")
    if not (root / "configs").is_dir():
        raise SetupError(f"{root} has no configs directory")
    return root


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    try:
        root = find_root()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(root, workdir, began + TOTAL_BUDGET_S)
        wl = workloads.build(args.workload, args.seed, workdir, root)

        def report(line):
            print(f"  {line}")

        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        if args.trace:
            values, env_info, imports = per_layer(bench, wl, args.seconds, report)
            units = PER_LAYER
        else:
            env_info, imports = bench.probe()
            values = end_to_end(bench, wl, args.seconds, report)
            units = END_TO_END
        env_info.update(seed=args.seed, git_commit=git_commit(root),
                        workload=args.workload, unit=wl.unit)
        print("  env " + json.dumps(env_info, sort_keys=True))
        print("  imports (cumulative s) " + json.dumps(
            {m: round(imports.get(m, 0.0), 4) for mods in IMPORT_MODULES.values()
             for m in mods}))
        for name, unit in units.items():
            print(f"  {name} = {values[name]!r} {unit}")
        frac = bench.failed / bench.attempted
        print(f"  failed_frac = {frac!r} ({bench.failed} of {bench.attempted})")
        for problem in bench.problems:
            print(f"  FAILED {problem}")
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
