"""The three benchmark workloads: inputs, timed repeats and output checks.

Each workload is a pair `setup_<name>(root, seed, seconds)` -> state and
`run_<name>(state, tr)` -> Outcome.  Set-up builds every input from the seed
(that is what `setup_s` times).  A run first makes the checks that call the
program, then times a fixed number of repeats of a fixed round of batches,
each repeat with fresh frequencies or sampler seeds, and reports `ops_per_s`,
the operations of one round over the summed fastest time of each of its
batches: interference from other processes only ever adds time.  `tr` is a
NoTrace in timed runs and a Tracer in traced runs; `layers(tr)` turns a
traced run into the per-layer metrics, the same set for every workload.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import shutil
import statistics
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trees
from levynet import cli, config, exact, limit, models, network, partition, simulate
from levynet.errors import LevynetError, SingularFactorError


@dataclass
class Outcome:
    """Operations attempted and failed, failed checks, and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    run_s: float = 0.0

    def operation(self, ok: bool, what: str, known_fault: bool = False) -> None:
        """Count one operation; a failure outside the known faults is a problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Fastest:
    """Fastest time seen per batch key."""

    def __init__(self):
        self.best: dict = {}

    def add(self, key, seconds: float) -> None:
        self.best[key] = min(seconds, self.best.get(key, math.inf))

    def total(self) -> float:
        """Time of one round: the fastest time of each batch, summed."""
        return sum(self.best.values())


def _repeats(seconds: int, nominal_repeat_s: float, minimum: int) -> int:
    """Repeat count from the run length alone, never from a measurement, so
    every run with the same --seconds attempts the same operations."""
    return max(minimum, round(seconds / nominal_repeat_s))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# --------------------------------------------------------------------------
# transform_deep: exact and limit transforms on deep random trees
# --------------------------------------------------------------------------

TD_U = 2.0
TD_SIGMA2 = 1.0
# (name, build function, nodes, tree seed); the trees do not depend on --seed, so
# every run times the same structures and only the frequencies change.
TD_TREES = (
    ("T50", trees.random_tree, 50, 1),  # 3 classes
    ("T80", trees.random_tree, 80, 3),  # 3 classes, phat down to 7.2e-6
    ("T100", trees.random_tree, 100, 3),  # 1 class, the costliest limit
    ("S50", trees.singleton_class_tree, 50, 0),  # 50 singleton classes
)
TD_POINTS = 2  # frequency vectors per tree and repeat, for each transform
# Defect probe: the marginal transform of T80's deepest node at x in
# [7, 17] trips the spurious SingularFactorError of exact._diffq_inv
# (den/num equals psi'(mid) ~ 1e-9 there, a regular factor).  Its inputs come
# from a fixed seed so the failed share is the same in every run.
TD_PROBE_TREE = "T80"
TD_PROBE_X = (7.0, 17.0)
TD_PROBE_SEED = 803
TD_REPEAT_S = 0.28


@dataclass
class DeepTree:
    name: str
    spec: network.NetworkSpec
    partition: partition.RateClassPartition
    rates: np.ndarray


def setup_transform_deep(root: Path, seed: int, seconds: int) -> dict:
    model = models.Brownian(TD_SIGMA2)
    deep = []
    for name, build, n, tree_seed in TD_TREES:
        spec = build(np.random.default_rng([n, tree_seed]), n)
        report = network.validate_assumptions(spec, TD_U)
        if not report.passed:
            raise RuntimeError(f"generated tree {name} fails validation:\n{report.pretty()}")
        deep.append(DeepTree(name, spec, partition.partition_rates(spec), spec.rate_vector(TD_U)))

    repeats = _repeats(seconds, TD_REPEAT_S, 5)
    rng = np.random.default_rng([seed, 1])
    draws = [{t.name: rng.uniform(0.05, 2.5, (TD_POINTS, t.spec.n)) for t in deep} for _ in range(repeats)]
    marginal_x = {t.name: rng.uniform(0.1, 10.0) for t in deep}
    lo, hi = np.log(TD_PROBE_X)
    probe_x = np.exp(np.random.default_rng(TD_PROBE_SEED).uniform(lo, hi, repeats))
    probe_tree = next(t for t in deep if t.name == TD_PROBE_TREE)
    probe_node = int(np.argmin(probe_tree.spec.phat))
    return dict(
        model=model,
        tail=model.tail_pair(models.HEAVY),
        trees=deep,
        repeats=repeats,
        draws=draws,
        marginal_x=marginal_x,
        probe_tree=probe_tree,
        probe_node=probe_node,
        probe_x=probe_x,
    )


def _evaluate(fn, calls) -> list:
    """Values of fn(*args) for each argument tuple; a levynet error in place
    of a value for a call that raised."""
    out = []
    for args in calls:
        try:
            out.append(fn(*args).value)
        except LevynetError as exc:
            out.append(exc)
    return out


def run_transform_deep(st: dict, tr) -> Outcome:
    out = Outcome()
    model, tail, deep = st["model"], st["tail"], st["trees"]

    # Root marginal: node 1 is a single Brownian queue, whatever the tree.
    for t in deep:
        x = st["marginal_x"][t.name]
        w = np.zeros(t.spec.n)
        w[0] = x
        want = 1.0 / (1.0 + TD_SIGMA2 * x / (2.0 * t.rates[0]))
        got = _evaluate(exact.joint_lst_exact, [(t.spec, model, w, TD_U)])[0]
        out.check(
            not isinstance(got, Exception) and _rel(got, want) <= 1e-12,
            f"{t.name}: root marginal {got} != single-queue {want}",
        )

    # Every node of S50 is its own class: the limit is a product of
    # Mittag-Leffler factors 1 / (1 + c phat_j^alpha w_j^(alpha-1)).
    s50 = next(t for t in deep if t.name == "S50")
    alpha, coeff = tail.alpha, tail.coeff
    product = lambda x: float(np.prod(1.0 / (1.0 + coeff * s50.spec.phat**alpha * x ** (alpha - 1.0))))

    fastest = Fastest()
    probe_w = np.zeros(st["probe_tree"].spec.n)
    tr.reset_counts()
    start = time.perf_counter()
    for r in range(st["repeats"]):
        gc.collect()
        for t in deep:
            xs = st["draws"][r][t.name]
            with tr.span(f"unit.exact:{t.name}"):
                t0 = time.perf_counter()
                exact_vals = _evaluate(exact.joint_lst_exact, [(t.spec, model, x * t.rates, TD_U) for x in xs])
                fastest.add(("exact", t.name), time.perf_counter() - t0)
            with tr.span(f"unit.limit:{t.name}"):
                t0 = time.perf_counter()
                limit_vals = _evaluate(limit.joint_lst_limit, [(t.spec, t.partition, tail, x) for x in xs])
                fastest.add(("limit", t.name), time.perf_counter() - t0)
            for kind, vals in (("exact", exact_vals), ("limit", limit_vals)):
                for v in vals:
                    ok = not isinstance(v, Exception) and 0.0 < v <= 1.0
                    out.operation(ok, f"{kind} on {t.name}, repeat {r}: {v}")
            if t is s50:
                for x, v in zip(xs, limit_vals):
                    if not isinstance(v, Exception):
                        want = product(x)
                        out.check(_rel(v, want) <= 1e-12, f"S50 limit {v} != product form {want}")

        probe_w[:] = 0.0
        probe_w[st["probe_node"]] = st["probe_x"][r]
        pt = st["probe_tree"]
        with tr.span("unit.probe"):
            t0 = time.perf_counter()
            v = _evaluate(exact.joint_lst_exact, [(pt.spec, model, probe_w, TD_U)])[0]
            fastest.add(("exact", "probe"), time.perf_counter() - t0)
        ok = not isinstance(v, Exception) and 0.0 < v <= 1.0
        out.operation(ok, f"probe repeat {r}: {v}", known_fault=isinstance(v, SingularFactorError))
    out.run_s = time.perf_counter() - start

    # a round: on every tree TD_POINTS exact and TD_POINTS limit points, and the probe
    out.metrics["ops_per_s"] = ((2 * TD_POINTS * len(deep) + 1) / fastest.total(), "1/s")
    return out


# --------------------------------------------------------------------------
# mc_crossval: Monte Carlo per input family against the exact transform
# --------------------------------------------------------------------------

MC_FAMILIES = {
    "brownian": models.Brownian(1.0),
    "gamma": models.CenteredGamma(2.0, 2.0),
    "cp": models.CompoundPoisson(1.0, models.ExponentialJob(1.0)),
    "stable": models.StableSum(((1.5, 0.5),)),
}
MC_NETWORKS = {"tandem": "tandem2_brownian.run.json", "fig1": "figure1.run.json"}
# figure-1 frequencies are x * scale * r_j / (phat_j^2 c), x ~ U(0.1, 2)^6,
# with c the heavy-traffic tail coefficient; scale keeps values mid-range.
MC_FIG1_SCALE = {"brownian": 0.3, "gamma": 1.0, "cp": 1.0, "stable": 10.0}
MC_SUB_BATCHES = 16  # timed simulate_workload calls pooled into one checked batch
MC_SUB_REPS = 250
MC_REF_BATCH = 5  # exact reference points per timed batch (25 = 5 batches)
MC_Z_MAX = 5.0
# At 4,000 replications the worst point of the stable-input tandem batch sits
# 12 to 16 SE above the exact transform (horizon truncation plus the grid
# supremum), so it fails every time; its sampler seeds and frequencies come
# from a fixed seed, so that it fails identically in every run.
MC_KNOWN_FAULT = ("stable", "tandem")
MC_FAULT_SEED = 15
MC_ROUND_S = 11.0


def setup_mc_crossval(root: Path, seed: int, seconds: int) -> dict:
    nets = {}
    for net, name in MC_NETWORKS.items():
        cfg = config.load_run_config(root / "configs" / name)
        report = network.validate_assumptions(cfg.spec, cfg.u)
        if not report.passed:
            raise RuntimeError(f"{name} fails validation:\n{report.pretty()}")
        nets[net] = cfg
    rounds = _repeats(seconds, MC_ROUND_S, 1)
    rng = np.random.default_rng([seed, 2])
    fault_rng = np.random.default_rng(MC_FAULT_SEED)
    plan = []  # per round: list of (family, network, sampler seeds, omegas)
    for _ in range(rounds):
        batches = []
        for fam, model in MC_FAMILIES.items():
            for net, cfg in nets.items():
                src = fault_rng if (fam, net) == MC_KNOWN_FAULT else rng
                seeds = [int(s) for s in src.integers(0, 2**63, MC_SUB_BATCHES)]
                if net == "tandem":
                    # the shipped 5 x 5 log grid on [0.1, 2]^2, each axis jittered
                    jitter = np.exp(src.uniform(-0.2, 0.2, 2))
                    omegas = [w * jitter for w in cfg.omegas]
                else:
                    spec = cfg.spec
                    coeff = model.tail_pair(models.HEAVY).coeff
                    scale = MC_FIG1_SCALE[fam] * spec.rate_vector(cfg.u) / (spec.phat**2 * coeff)
                    omegas = list(rng.uniform(0.1, 2.0, (25, spec.n)) * scale)
                batches.append((fam, net, seeds, omegas))
        plan.append(batches)
    return dict(nets=nets, plan=plan)


def run_mc_crossval(st: dict, tr) -> Outcome:
    out = Outcome()
    fastest = Fastest()
    tr.reset_counts()
    start = time.perf_counter()
    for batches in st["plan"]:
        parts = {(fam, net): [] for fam, net, _, _ in batches}
        reference = {(fam, net): [] for fam, net, _, _ in batches}
        # Round-robin over the batches, so that a slow spell of the machine
        # cannot cover every repeat of one batch.
        for k in range(MC_SUB_BATCHES):
            gc.collect()
            for fam, net, seeds, omegas in batches:
                model, cfg = MC_FAMILIES[fam], st["nets"][net]
                sim = simulate.SimConfig(u=cfg.u, n_rep=MC_SUB_REPS, seed=seeds[k], n_workers=1)
                with tr.span(f"unit.simulate:{fam}.{net}"):
                    t0 = time.perf_counter()
                    parts[fam, net].append(simulate.simulate_workload(cfg.spec, model, sim))
                    fastest.add(("sim", fam, net), time.perf_counter() - t0)
                chunk = omegas[k * MC_REF_BATCH : (k + 1) * MC_REF_BATCH]
                if not chunk:
                    continue
                calls = [(cfg.spec, model, w, cfg.u) for w in chunk]
                with tr.span(f"unit.reference:{fam}.{net}"):
                    t0 = time.perf_counter()
                    vals = _evaluate(exact.joint_lst_exact, calls)
                    fastest.add(("ref", fam, net), time.perf_counter() - t0)
                for v in vals:
                    out.operation(
                        not isinstance(v, Exception) and 0.0 < v <= 1.0,
                        f"reference point {fam}/{net}: {v}",
                    )
                reference[fam, net] += vals

        for fam, net, _, omegas in batches:
            ref = reference[fam, net]
            if any(isinstance(v, Exception) for v in ref):
                continue
            estimates = simulate.empirical_lst(np.concatenate(parts[fam, net]), omegas)
            z = max(abs(e.mean - v) / e.se for e, v in zip(estimates, ref))
            out.operation(
                z <= MC_Z_MAX,
                f"{fam} on {net}: max |gap|/SE {z:.2f} > {MC_Z_MAX}",
                known_fault=(fam, net) == MC_KNOWN_FAULT,
            )
    out.run_s = time.perf_counter() - start

    # a round: one simulate_workload call of MC_SUB_REPS replications per
    # family and network, and one batch of reference points for each
    pairs = len(MC_FAMILIES) * len(MC_NETWORKS)
    out.metrics["ops_per_s"] = (MC_SUB_REPS * pairs / fastest.total(), "1/s")
    return out


# --------------------------------------------------------------------------
# cli_configs: the CLI in-process on the shipped configs
# --------------------------------------------------------------------------

# (command, config, extra flags); every command also gets --out and --seed.
CLI_COMMANDS = (
    ("validate", "figure1.run.json", ()),
    ("validate", "tandem2_brownian.run.json", ()),
    ("validate", "tandem2_heavy_sweep.run.json", ()),
    ("structure", "figure1.run.json", ()),
    ("structure", "tandem2_brownian.run.json", ()),
    ("structure", "tandem2_heavy_sweep.run.json", ()),
    ("lst-exact", "figure1.run.json", ()),
    ("lst-exact", "figure1.run.json", ("--diagnostics",)),
    ("lst-exact", "tandem2_brownian.run.json", ()),
    ("lst-exact", "tandem2_brownian.run.json", ("--diagnostics",)),
    ("lst-limit", "figure1.run.json", ()),  # light regime, from the config
    ("lst-limit", "tandem2_heavy_sweep.run.json", ()),  # heavy regime
    ("sweep", "figure1.run.json", ()),
    ("sweep", "tandem2_heavy_sweep.run.json", ()),
)
CLI_REPEAT_S = 0.55


def setup_cli_configs(root: Path, seed: int, seconds: int) -> dict:
    repeats = _repeats(seconds, CLI_REPEAT_S, 3)
    seeds = np.random.default_rng([seed, 3]).integers(0, 2**31, repeats)
    return dict(
        configs=root / "configs",
        scratch=root / ".perfbench" / "cli",
        repeats=repeats,
        seeds=[int(s) for s in seeds],
    )


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _check_cli_output(out: Outcome, command: str, cfg_name: str, extra, path: Path, configs: Path):
    what = f"{command} {cfg_name} {' '.join(extra)}".strip()
    if command == "validate":
        out.check(json.loads(path.read_text())["passed"], f"{what}: verdict not passed")
    elif command == "structure":
        payload = json.loads(path.read_text())
        net_doc = json.loads((configs / json.loads((configs / cfg_name).read_text())["network"]).read_text())
        phat = {1: 1.0}
        for e in sorted(net_doc["edges"], key=lambda e: e["to"]):
            phat[e["to"]] = phat[e["from"]] * e["p"]
        want = [phat[j] for j in range(1, net_doc["n"] + 1)]
        out.check(
            all(_rel(a, b) <= 1e-14 for a, b in zip(payload["phat"], want)) and len(payload["phat"]) == len(want),
            f"{what}: phat {payload['phat']} != routing products {want}",
        )
    elif command == "lst-exact":
        header, rows = _read_csv(path)
        n = sum(h.startswith("omega_") for h in header)
        values = [row[n] for row in rows]
        out.check(all(0.0 < v <= 1.0 for v in values), f"{what}: value outside (0, 1]")
        for row in rows:
            if not any(row[:n]):
                out.check(row[n] == 1.0, f"{what}: value {row[n]} at omega = 0")
        if n == 2 and len(rows) == 25:
            grid = np.array(values).reshape(5, 5)  # omega_1 major, both axes increasing
            out.check(
                bool(np.all(np.diff(grid, axis=0) <= 0.0) and np.all(np.diff(grid, axis=1) <= 0.0)),
                f"{what}: values increase along an omega axis",
            )
    elif command == "lst-limit":
        header, rows = _read_csv(path)
        n = sum(h.startswith("omega_") for h in header)
        for row in rows:
            out.check(_rel(float(np.prod(row[n + 1 :])), row[n]) <= 1e-12, f"{what}: factors {row[n+1:]} != value {row[n]}")
    elif command == "sweep":
        header, rows = _read_csv(path)
        col = {h: i for i, h in enumerate(header)}
        by_omega: dict = {}
        for row in rows:
            by_omega.setdefault(tuple(row[1 : col["exact_scaled"]]), []).append(row)
        for series in by_omega.values():
            series.sort(key=lambda row: row[0])
            limits = {row[col["limit"]] for row in series}
            out.check(len(limits) == 1, f"{what}: limit column varies with u")
            gaps = [row[col["gap"]] for row in series]
            if "heavy" in cfg_name:
                out.check(all(b < a for a, b in zip(gaps, gaps[1:])), f"{what}: gaps {gaps} do not fall with u")


def run_cli_configs(st: dict, tr) -> Outcome:
    out = Outcome()
    fastest = Fastest()
    configs, scratch = st["configs"], st["scratch"]
    tr.reset_counts()
    start = time.perf_counter()
    try:
        for r, seed in enumerate(st["seeds"]):
            # fresh copies of the configs per repeat, so no repeat can reuse
            # anything keyed on an earlier path
            work = scratch / f"r{r}"
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(configs, work)
            gc.collect()
            for k, (command, cfg_name, extra) in enumerate(CLI_COMMANDS):
                path = work / f"out{k}"
                argv = [command, "--config", str(work / cfg_name), "--out", str(path), "--seed", str(seed), *extra]
                err = io.StringIO()
                with tr.span(f"cli.{command}"), redirect_stderr(err):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    fastest.add(k, time.perf_counter() - t0)
                out.operation(rc == 0, f"{' '.join(argv)}: exit code {rc}: {err.getvalue()[-300:]}")
                if rc == 0:
                    _check_cli_output(out, command, cfg_name, extra, path, configs)
            shutil.rmtree(work)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.run_s = time.perf_counter() - start
    out.metrics["ops_per_s"] = (len(CLI_COMMANDS) / fastest.total(), "1/s")
    return out


WORKLOADS = {
    "transform_deep": (setup_transform_deep, run_transform_deep),
    "mc_crossval": (setup_mc_crossval, run_mc_crossval),
    "cli_configs": (setup_cli_configs, run_cli_configs),
}


# --------------------------------------------------------------------------
# per-layer metrics of a traced run
# --------------------------------------------------------------------------


def layers(tr) -> dict:
    """Every per-layer metric of a traced run, whatever the workload: a layer
    the workload does not call reads 0.  Counts are those of the timed run
    (the tracer resets them when it starts); "per point" divides by the
    transform points it evaluated."""
    c = tr.counts
    exact_pts = len(tr.durations("exact.joint_lst_exact"))
    limit_pts = len(tr.durations("limit.joint_lst_limit"))

    def per(key: str, n: int) -> float:
        return c[key] / n if n else 0.0

    out = {
        "roots.solves_per_point": (per("roots.solve", exact_pts + limit_pts), "count"),
        "roots.f_evals_per_solve": (per("roots.f_eval", c["roots.solve"]), "count"),
        "roots.solve_us": (tr.mean_us("roots.solve"), "us"),
        "models.exponent_calls_per_point": (per("models.exponent", exact_pts), "count"),
        "models.exponent_us": (tr.mean_us("models.exponent"), "us"),
        "network.rate_calls_per_point": (per("network.rate", exact_pts), "count"),
        "exact.point_ms": (tr.mean_ms("exact.joint_lst_exact"), "ms"),
        "exact.kappa_calls_per_point": (per("exact.kappa", exact_pts), "count"),
        "exact.kappa_us": (tr.mean_us("exact.kappa"), "us"),
        "exact.singular_errors": (c["exact.joint_lst_exact.SingularFactorError"], "count"),
        "limit.point_ms": (tr.mean_ms("limit.joint_lst_limit"), "ms"),
        "limit.singular_resolutions": (len(tr.durations("limit.singular_limit")), "count"),
        "partition.starred_sets_calls_per_point": (per("partition.starred_sets", limit_pts), "count"),
    }
    for fam in MC_FAMILIES:
        for net in MC_NETWORKS:
            calls = tr.durations(f"unit.simulate:{fam}.{net}")
            per_call = statistics.median(calls) if calls else 0.0
            out[f"simulate.rep_us.{fam}.{net}"] = (1e6 * per_call / MC_SUB_REPS, "us")
    out["simulate.empirical_ms"] = (tr.mean_ms("simulate.empirical_lst"), "ms")
    out["config.load_ms"] = (tr.mean_ms("config.load_run_config"), "ms")
    out["network.build_ms"] = (tr.mean_ms("network.build_network"), "ms")
    out["network.validate_ms"] = (tr.mean_ms("network.validate_assumptions"), "ms")
    for command in dict.fromkeys(c for c, _, _ in CLI_COMMANDS):
        out[f"cli.{command}_ms"] = (tr.mean_ms(f"cli.{command}"), "ms")
    return out
