"""Every stored exact, limit and sampler value is reproduced bit for bit (tests/values.py)."""

import json
import platform

import numpy as np

from values import INPUTS, PATH, SAMPLE_NETWORKS, TREE_SEEDS, changed_groups, compute


def test_stored_values_are_bit_identical():
    stored = json.loads(PATH.read_text())
    fresh = compute()
    assert len(fresh["groups"]) == (len(TREE_SEEDS) + len(SAMPLE_NETWORKS)) * len(INPUTS) == 252
    assert fresh["environment"] == stored["environment"]
    here = f"numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}"
    changed = changed_groups(stored["groups"], fresh["groups"])
    assert not changed, (
        f"groups differ from the values computed with {stored['environment']} (this run: {here}): "
        + "; ".join(changed)
    )
