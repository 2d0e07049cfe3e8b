"""Every stored exact, limit and sampler value is reproduced bit for bit (tests/values.py)."""

import json
import platform

import numpy as np
import pytest

from levynet import LevynetError, joint_lst_exact, joint_lst_limit, partition_rates
from levynet.models import HEAVY

from values import INPUTS, PATH, SAMPLE_NETWORKS, TREE_SEEDS, U_EXACT, _tree, changed_groups, compute, family_summary


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


def test_each_stored_group_is_one_grid_call_per_u_and_one_in_the_limit():
    # a group's three frequency vectors as one (3, n) grid: where all three
    # stored entries are values the grid gives their bits, else it raises
    # the error of the first row that raised one
    stored = json.loads(PATH.read_text())["groups"]
    for seed in TREE_SEEDS:
        spec, omegas = _tree(seed)
        grid, partition = np.array(omegas), partition_rates(spec)
        for name, model in INPUTS.items():
            tail = model.tail_pair(HEAVY)
            calls = [lambda u=u: joint_lst_exact(spec, model, grid, u) for u in U_EXACT]
            calls.append(lambda: joint_lst_limit(spec, partition, tail, grid))
            entries = stored[f"tree {seed} {name}"]
            for k, evaluate in enumerate(calls):
                want = entries[3 * k : 3 * k + 3]
                errors = [e for e in want if e[:1].isupper()]  # an error name, not float hex
                if errors:
                    with pytest.raises(LevynetError) as raised:
                        evaluate()
                    assert type(raised.value).__name__ == errors[0], (seed, name, k)
                else:
                    assert [v.hex() for v in evaluate().value.tolist()] == want, (seed, name, k)


def test_the_summary_gives_each_family_its_changed_groups_and_largest_change():
    def group(*values):
        return [v if isinstance(v, str) else v.hex() for v in values]

    stored = {
        "tree 0 brownian": group(0.5, 0.25, "SingularFactorError"),
        "tree 1 brownian": group(0.5, 0.125),
        "tree 2 brownian": group(0.75),
        "tree 0 gamma": group(0.5, 0.5),
        "tree 1 gamma": group(0.5, 0.5),
        "samples tandem gamma": "0" * 64,
        "tree 0 stable1.5": group(0.5),
    }
    fresh = dict(stored)
    fresh["tree 0 brownian"] = group(0.5, 0.25 * (1.0 + 2.0**-50), "SingularFactorError")
    fresh["tree 1 brownian"] = group(0.5 * (1.0 - 2.0**-52), 0.125 * (1.0 + 2.0**-52))
    fresh["tree 0 gamma"] = group(0.5, "SingularFactorError")
    fresh["samples tandem gamma"] = "1" * 64
    assert changed_groups(stored, fresh) == [
        "samples tandem gamma (a digest, or a group added, removed or resized)",
        f"tree 0 brownian (largest relative change {2.0**-50:.3g})",
        "tree 0 gamma (a point changed between a value and a refusal)",
        f"tree 1 brownian (largest relative change {2.0**-52:.3g})",
    ]
    # 0.25 (1 + 2**-50) is 4 ulps above 0.25; 0.5 (1 - 2**-52) is 2 below 0.5 and
    # 0.125 (1 + 2**-52) one above 0.125
    assert family_summary(stored, fresh) == [
        f"brownian: 2 of 3 groups changed, largest relative change {2.0**-50:.3g}, largest 4 ulp",
        "gamma: 2 of 3 groups changed, 2 with a digest or a refusal changed",
        "stable1.5: 0 of 1 groups changed",
    ]
