"""Stored values of both transforms and the sampler, bit for bit.

The corpus: 40 seeded random trees (2 to 12 nodes, conftest.random_spec) times
six inputs.  For each (tree seed, input) group it holds the exact transform at
u in U_EXACT and the heavy-traffic limit, each at the same three frequency
vectors, as float hex, or the name of the error a point raised.  A sample group holds
the sha256 of simulate_workload's samples for one input on the heavy tandem
or on figure 1; they are bit-identical whatever the worker count.  test_values.py compares a fresh computation against
tests/data/values.json.  To regenerate it after a change that moves a value
on purpose, run

    PYTHONPATH=src python tests/values.py --write

and list each changed group in CHANGES.md.  Without --write it prints the
groups that differ from the file, then one line per input family: its
groups that changed out of its total, the largest relative change and the
largest change in ulps.  It writes nothing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    LevynetError,
    SimConfig,
    StableSum,
    joint_lst_exact,
    joint_lst_limit,
    load_network,
    partition_rates,
    simulate_workload,
)
from levynet.models import HEAVY

from conftest import CONFIGS, random_spec
from test_cli import DIGEST_ENVIRONMENT

PATH = Path(__file__).resolve().parent / "data" / "values.json"
INPUTS = {
    "brownian": Brownian(1.3),
    "gamma": CenteredGamma(2.0, 2.0),
    "erlang3": CompoundPoisson(1.0, ErlangJob(3, 3.0)),
    "deterministic": CompoundPoisson(0.8, DeterministicJob(1.25)),
    "stable1.5": StableSum(((1.5, 0.5),)),
    "stable_sum": StableSum(((1.3, 0.5), (2.0, 0.4))),
}
TREE_SEEDS = range(40)
U_EXACT = (1.0, 2.0, 7.5)
SAMPLE_NETWORKS = {"tandem": "tandem2_heavy.network.json", "figure1": "figure1.network.json"}
SAMPLE_CONFIG = SimConfig(u=4.0, n_rep=4096, seed=11)


def _tree(seed: int):
    """Tree `seed` and its three frequency vectors: dense, half zero, and one large."""
    rng = np.random.default_rng([41, seed])
    spec = random_spec(rng, int(rng.integers(2, 13)))
    dense = rng.uniform(0.1, 2.0, spec.n)
    half = np.where(rng.random(spec.n) < 0.5, 0.0, rng.uniform(0.1, 2.0, spec.n))
    return spec, (dense, half, 5.0 * dense)


def _hex(evaluate) -> str:
    try:
        return float(evaluate().value).hex()
    except LevynetError as err:
        return type(err).__name__


def transform_values() -> dict[str, list[str]]:
    """Group 'tree <seed> <input>': the exact values at each u, then the limit values."""
    groups = {}
    for seed in TREE_SEEDS:
        spec, omegas = _tree(seed)
        partition = partition_rates(spec)
        for name, model in INPUTS.items():
            tail = model.tail_pair(HEAVY)
            exact = [_hex(lambda: joint_lst_exact(spec, model, w, u)) for u in U_EXACT for w in omegas]
            limit = [_hex(lambda: joint_lst_limit(spec, partition, tail, w)) for w in omegas]
            groups[f"tree {seed} {name}"] = exact + limit
    return groups


def sample_digests() -> dict[str, str]:
    """Group 'samples <network> <input>': sha256 of the samples' bytes."""
    digests = {}
    for net, file in SAMPLE_NETWORKS.items():
        spec = load_network(CONFIGS / file)
        for name, model in INPUTS.items():
            samples = simulate_workload(spec, model, SAMPLE_CONFIG)
            digests[f"samples {net} {name}"] = hashlib.sha256(samples.tobytes()).hexdigest()
    return digests


def compute() -> dict:
    return {"environment": DIGEST_ENVIRONMENT, "groups": {**transform_values(), **sample_digests()}}


def _ulps(a: float, b: float) -> int:
    """How many floats apart a and b, of one sign, are: the difference of their bit patterns."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _change(old, new) -> tuple[float, int] | str:
    """The largest relative change and the largest change in ulps between two
    unequal groups' float entries, or a note where they are not both lists of
    floats of one length."""
    if not (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)):
        return "a digest, or a group added, removed or resized"
    try:
        pairs = [(float.fromhex(a), float.fromhex(b)) for a, b in zip(old, new) if a != b]
    except ValueError:  # an entry that is an error name
        return "a point changed between a value and a refusal"
    return max(abs(b / a - 1.0) for a, b in pairs), max(_ulps(a, b) for a, b in pairs)


def changed_groups(stored: dict, fresh: dict) -> list[str]:
    """The groups whose entries differ, each with its largest relative change where both are floats."""
    out = []
    for key in sorted(stored.keys() | fresh.keys()):
        old, new = stored.get(key), fresh.get(key)
        if old != new:
            change = _change(old, new)
            out.append(f"{key} ({change if isinstance(change, str) else f'largest relative change {change[0]:.3g}'})")
    return out


def family_summary(stored: dict, fresh: dict) -> list[str]:
    """One line per input family (the last word of a group's name): its groups
    that changed out of its total, and the largest relative change and the
    largest change in ulps among them."""
    families: dict[str, list] = {}
    for key in sorted(stored.keys() | fresh.keys(), key=lambda k: k.split()[-1]):
        old, new = stored.get(key), fresh.get(key)
        families.setdefault(key.split()[-1], []).append(None if old == new else _change(old, new))
    lines = []
    for family, changes in families.items():
        changed = [c for c in changes if c is not None]
        line = f"{family}: {len(changed)} of {len(changes)} groups changed"
        if rel := [c for c in changed if not isinstance(c, str)]:
            line += f", largest relative change {max(c[0] for c in rel):.3g}, largest {max(c[1] for c in rel)} ulp"
        if notes := len(changed) - len(rel):
            line += f", {notes} with a digest or a refusal changed"
        lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    fresh = compute()
    if "--write" in argv:
        PATH.parent.mkdir(exist_ok=True)
        rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in fresh["groups"].items())
        PATH.write_text(f'{{"environment": {json.dumps(fresh["environment"])}, "groups": {{\n{rows}\n}}}}\n')
        print(f"wrote {len(fresh['groups'])} groups to {PATH}")
        return 0
    stored = json.loads(PATH.read_text())["groups"]
    changed = changed_groups(stored, fresh["groups"])
    print("\n".join([*(changed or ["no group changed"]), *family_summary(stored, fresh["groups"])]))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
