"""Fresh interpreters that import arithlab from this tree, shared by the tests.

This module imports nothing outside the standard library, so a plain
interpreter can use it without pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def tree_env(**extra: str) -> dict[str, str]:
    """os.environ with this tree's src first on PYTHONPATH, then `extra`."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_python(args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run `python *args` on tree_env(**env), capturing its output.

    Further keyword arguments (text, cwd, ...) go to subprocess.run.
    """
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=tree_env(**(env or {})), **kwargs
    )
