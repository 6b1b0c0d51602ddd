"""Runs the benchmark command and parses its result; shared by the scripts
in this directory (check_determinism.py, spread.py)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    """BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds):
    """Runs the benchmark once from the repository root and returns its
    JSON result; exits with a message if the run fails."""
    command = load_spec()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit("FAIL %s seed %d trace=%d: exit code %d" %
                 (workload, seed, trace, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])
