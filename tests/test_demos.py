"""Each demo prints exactly what it printed when its digest was pinned.

Every script in ``demos/`` runs in a fresh interpreter that imports arithlab
from this tree, and the sha256 of its stdout is compared with
``demos_sha256.json``.  The six demos take about a second together.

After a change that is meant to alter a demo's output, rerun this test and
copy the digest from its failure message into the pin file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tree_python import run_python

PIN = Path(__file__).with_name("demos_sha256.json")
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def demo_stdout(script: Path) -> bytes:
    result = run_python([str(script)])
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_pin_names_every_demo():
    assert sorted(json.loads(PIN.read_text())) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(json.loads(PIN.read_text())))
def test_demo_stdout_is_pinned(name):
    digest = hashlib.sha256(demo_stdout(DEMOS / name)).hexdigest()
    assert digest == json.loads(PIN.read_text())[name], f"{name}: {digest}"
