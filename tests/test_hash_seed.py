"""Runs must not depend on Python's string hashing: the CLI trace and
fingerprint of each golden world are the same under two PYTHONHASHSEED
values, and the traces equal the golden files byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN_DIR, MODELS_DIR

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

GOLDEN_RUNS = (
    ("trafficlight.xfo", "demo", "cycle", "trafficlight_cycle.ndjson"),
    ("waterdropper-goryeo.xfo", "studio", "pottery", "pottery_sequence.ndjson"),
)


def _run_cli(hash_seed, model, world, chain, trace):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC_DIR))
    argv = [
        sys.executable, "-c", "import sys; from xfo.cli import main; sys.exit(main())",
        "run", str(MODELS_DIR / model), "--world", world, "--chain", chain,
        "--ticks", "10", "--trace", str(trace),
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("model, world, chain, golden", GOLDEN_RUNS)
def test_golden_run_independent_of_hash_seed(tmp_path, model, world, chain, golden):
    outputs = []
    for hash_seed in (0, 1):
        trace = tmp_path / f"seed{hash_seed}.ndjson"
        outputs.append(_run_cli(hash_seed, model, world, chain, trace))
        assert trace.read_bytes() == (GOLDEN_DIR / golden).read_bytes()
    assert outputs[0].startswith("status=completed ")
    assert outputs[0] == outputs[1]
