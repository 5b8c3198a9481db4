"""The ``--lock-witness`` pytest option end to end: a session run with
it writes a witness, and ``repro analyze --witness`` fails the build on
a lock-order cycle the session took (the rule CI's tier-1 job keeps)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ABBA = os.path.join(ROOT, "tests", "fixtures", "witness", "abba_case.py")


def run(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_a_seeded_abba_cycle_fails_through_the_option(tmp_path):
    witness = tmp_path / "witness.json"
    session = run("-m", "pytest", "-q", "-p", "no:cacheprovider", "--lock-witness", str(witness), ABBA)
    assert session.returncode == 0, session.stdout + session.stderr
    edges = {(e["held"], e["acquired"]) for e in json.loads(witness.read_text())["edges"]}
    assert {("Abba._a", "Abba._b"), ("Abba._b", "Abba._a")} <= edges
    verdict = run(
        "-m", "repro.cli", "analyze", "--lint", "src/repro",
        "--witness", str(witness), "--fail-on", "warning",
    )
    assert verdict.returncode == 1, verdict.stdout
    assert "NEPL203" in verdict.stdout and "Abba._a" in verdict.stdout
    assert "witnessed lock-order edges are not in the lint's static model" in verdict.stdout
