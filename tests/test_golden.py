"""Golden summaries: every shipped config at --seed 5 against committed values.

`golden_summaries.json` holds, per config, the summary scalars and the CSV's
row count and column sums (math.fsum, so independent of summation order).
Floats compare at rtol 1e-12 with an atol floor of 1e-14, everything else
exactly; no byte digest, since numpy's SIMD exp and log may differ by an ulp
across CPUs.  A change that moves a value on purpose regenerates the file,
`PYTHONPATH=src python tests/test_golden.py`, and lists every moved key.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest

from collapse_lab.cli import ExperimentConfig, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).with_name("golden_summaries.json")
SEED = 5


def summarize(config: Path, out_dir: Path) -> dict:
    """The scalars of one run of `config` at SEED, its CSV's row count and
    its column sums."""
    out = out_dir / f"{config.stem}.csv"
    section = ExperimentConfig.from_file(config).experiment
    assert main([section, "--config", str(config), "--seed", str(SEED),
                 "--out", str(out)]) == 0
    with open(out, newline="") as f:
        header, *rows = csv.reader(f)
    doc = json.loads(out.with_suffix(".summary.json").read_text())
    return {"scalars": doc["scalars"], "rows": len(rows),
            "column_sums": {col: math.fsum(float(row[i]) for row in rows)
                            for i, col in enumerate(header)}}


def assert_matches(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_summary_matches_golden(tmp_path, config):
    want = json.loads(GOLDEN.read_text())[config.stem]
    assert_matches(summarize(config, tmp_path), want, config.stem)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {p.stem: summarize(p, Path(tmp)) for p in sorted(CONFIGS.glob("*.ini"))}
    GOLDEN.write_text(json.dumps(golden, indent=2, allow_nan=False) + "\n")
