"""Each demo prints exactly what it printed when its digest was pinned.

Every script in ``demos/`` runs in a fresh interpreter that imports arithlab
from this tree, and the sha256 of its stdout is compared with
``demos_sha256.json`` (the runner is in stdout_pins).  The six demos take
about a second together.

After a change that is meant to alter a demo's output, rerun this test and
copy the digest from its failure message into the pin file.
"""

import json

import pytest

from stdout_pins import DEMO_PIN, demo_mismatches, unpinned_demos


def test_pin_names_every_demo():
    assert not unpinned_demos()


@pytest.mark.parametrize("name", sorted(json.loads(DEMO_PIN.read_text())))
def test_demo_stdout_is_pinned(name):
    assert not demo_mismatches([name])
