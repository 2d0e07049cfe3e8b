"""Batch command-line front end.

Commands: validate, structure, lst-exact, lst-limit, simulate, compare,
sweep.  Configs and machine outputs are JSON, numeric tables are CSV with
floats printed at 17 significant digits; every CSV row echoes its full
frequency vector.  Outputs are bit-reproducible for a given (config, seed).

Exit codes: 0 success (validate: all assumptions pass), 1 failed validation
verdict, 2 usage, structural or config errors (an unknown or missing flag, a
u that is not a finite number > 0, a seed below 0, an unreadable config or
network file, an --out path that cannot be written and an r/phat that rises
where a transform reads it included), 3 numerical errors; for codes 2 and 3
a machine-readable JSON object is written to stderr.  Each command is a
function of the loaded run config and the parsed flags, reads each setting
through _setting (its flag, else the config) and writes its whole output
through _emit once it is computed, each CSV table through _table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .config import RunConfig, load_run_config
from .errors import ConfigError, LevynetError, StructuralError
from .exact import joint_lst_exact
from .limit import joint_lst_limit
from .network import validate_assumptions
from .partition import partition_rates, starred_sets
from .simulate import SimConfig, convergence_study, empirical_lst, path_scales, simulate_workload


def _emit(args, text: str) -> None:
    """Write a command's output to --out, or to stdout."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--out {args.out} cannot be written: {exc.strerror or exc}") from exc


def _table(args, n: int, columns: list[str], rows, lead: tuple[str, ...] = ()) -> int:
    """Write a CSV table: the lead columns, omega_1..omega_n, then columns.

    Each row is (*lead values, omega, values).  Floats print at 17
    significant digits; no field needs quoting.
    """
    lines = [[*lead, *(f"omega_{j}" for j in range(1, n + 1)), *columns]]
    lines += [[*row[:-2], *map(float, row[-2]), *row[-1]] for row in rows]
    text = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in line) + "\n" for line in lines)
    _emit(args, "".join(text))
    return 0


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _positive_u(text: str) -> float:
    """A --u value: a finite float > 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"u must be > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, else a usage error."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")


def _setting(cfg: RunConfig, args, name: str):
    """The command's --name flag where it has one and it was given, else the run config's setting.

    name is a run-config key: omega, u, u_list or regime.  A ConfigError
    where neither is set names the flag only where the command has it.
    """
    value = getattr(args, name, None)
    if value is None:
        value = getattr(cfg, "omegas" if name == "omega" else name)
    if value is None:
        flag = f" or pass --{name}" if hasattr(args, name) else ""
        raise ConfigError(f"missing {name}: set it in the config{flag}")
    return value


def _sim_config(cfg: RunConfig, args, u: float) -> SimConfig:
    """The config's sim block at u, its seed overridden by --seed."""
    block = dict(cfg.sim)
    if args.seed is not None:
        block["seed"] = args.seed
    return SimConfig(u=u, **block)


# the --diagnostics columns, one per node j < n each: name -> the LstEvaluation fields it subtracts
_DIAGNOSTICS = {
    "phi_minus_delta": ("phi_at_kappa", "delta"),
    "phi_minus_delta_hat": ("phi_at_kappa", "delta_hat"),
    "kappa_minus_psi_delta_hat": ("kappa", "psi_delta_hat"),
    "kappa_minus_psi_delta": ("kappa", "psi_delta"),
}


def cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_assumptions(cfg.spec, **({} if args.u is None else {"u_probe": args.u}))
    _emit(args, _json(report.to_dict()))
    print(report.pretty(), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_structure(cfg: RunConfig, args) -> int:
    spec = cfg.spec
    partition = partition_rates(spec)
    nodes = range(1, spec.n + 1)
    starred = {j: starred_sets(spec, partition, j) for j in nodes}
    fronts, children = ([(np.flatnonzero(r) + 1).tolist() for r in m] for m in (spec.front_matrix, spec.routing.p))
    payload = {
        "n": spec.n,
        "phat": list(spec.phat),
        "parent": {str(j): p for j, p in spec.parent.items()},
        "fronts": {str(j): fronts[j - 1] for j in nodes},
        "children": {str(j): children[j - 1] for j in nodes},
        "starred_fronts": {str(j): sorted(starred[j][0]) for j in starred},
        "starred_children": {str(j): sorted(starred[j][1]) for j in starred},
        "classes": [list(c) for c in partition.classes],
        "anchors": list(partition.anchors),
        "fractions": list(partition.fractions),
        "class_of": list(partition.class_of),
        "reference_rates": [
            [{"c": c, "e": e} for c, e in ref.terms] for ref in partition.reference_rates
        ],
    }
    _emit(args, _json(payload))
    fmt = lambda s: "{" + ",".join(str(i) for i in sorted(s)) + "}"
    print("node parent phat     class fraction fronts        children      star-fronts   star-children", file=sys.stderr)
    for j in nodes:
        print(
            f"{j:4d} {spec.parent.get(j, '-'):>6} {spec.phat[j-1]:<8.5g} "
            f"{partition.class_of[j-1]:>5} {partition.fractions[j-1]:<8.5g} "
            f"{fmt(fronts[j - 1]):<13} {fmt(children[j - 1]):<13} "
            f"{fmt(starred[j][0]):<13} {fmt(starred[j][1])}",
            file=sys.stderr,
        )
    return 0


def cmd_lst_exact(cfg: RunConfig, args) -> int:
    u, omegas = _setting(cfg, args, "u"), _setting(cfg, args, "omega")
    n = cfg.spec.n
    ev = joint_lst_exact(cfg.spec, cfg.model, omegas, u)
    columns, values = ["value"], [ev.value[:, None]]
    if args.diagnostics:
        columns += ["prefactor", *(f"{name}_{j}" for j in range(1, n) for name in _DIAGNOSTICS)]
        diagnostics = np.stack([getattr(ev, a) - getattr(ev, b) for a, b in _DIAGNOSTICS.values()], axis=2)
        values += [ev.prefactor[:, None], diagnostics.reshape(len(omegas), len(_DIAGNOSTICS) * (n - 1))]
    return _table(args, n, columns, zip(omegas, np.hstack(values).tolist()))


def cmd_lst_limit(cfg: RunConfig, args) -> int:
    regime, omegas = _setting(cfg, args, "regime"), _setting(cfg, args, "omega")
    spec = cfg.spec
    partition = partition_rates(spec)
    res = joint_lst_limit(spec, partition, cfg.model.tail_pair(regime), omegas)
    rows = zip(omegas, np.column_stack((res.value, res.factor_values)).tolist())
    return _table(args, spec.n, ["value", *(f"factor_{k}" for k in range(1, partition.m + 1))], rows)


def cmd_simulate(cfg: RunConfig, args) -> int:
    omegas, u = _setting(cfg, args, "omega"), _setting(cfg, args, "u")
    estimates = empirical_lst(simulate_workload(cfg.spec, cfg.model, _sim_config(cfg, args, u)), omegas)
    rows = [(est.omega, [est.mean, est.se, est.ci_low, est.ci_high]) for est in estimates]
    return _table(args, cfg.spec.n, ["empirical", "se", "ci_low", "ci_high"], rows)


def cmd_compare(cfg: RunConfig, args) -> int:
    omegas, u = _setting(cfg, args, "omega"), _setting(cfg, args, "u")
    sim = _sim_config(cfg, args, u)
    # Refuse before sampling: first where the sampler would, then where the exact transform does.
    path_scales(cfg.spec, cfg.model, sim)
    exacts = joint_lst_exact(cfg.spec, cfg.model, omegas, u).value.tolist()
    estimates = empirical_lst(simulate_workload(cfg.spec, cfg.model, sim), omegas)
    rows = []
    for est, exact in zip(estimates, exacts):
        gap = abs(est.mean - exact)
        # a zero gap is 0 SE off, also where the sample has no spread
        gap_over_se = gap / est.se if est.se > 0 else (math.inf if gap else 0.0)
        rows.append((est.omega, [est.mean, est.se, exact, gap, gap_over_se]))
    return _table(args, cfg.spec.n, ["empirical", "se", "exact", "abs_gap", "gap_over_se"], rows)


def cmd_sweep(cfg: RunConfig, args) -> int:
    regime, omegas, u_list = (_setting(cfg, args, name) for name in ("regime", "omega", "u_list"))
    spec = cfg.spec
    partition = partition_rates(spec)
    sim = _sim_config(cfg, args, u_list[0]) if args.with_empirical else None
    columns = ["exact_scaled", "limit", "gap"] + (["empirical", "se"] if args.with_empirical else [])
    rows = convergence_study(spec, partition, cfg.model, regime, omegas, u_list, sim=sim)
    return _table(args, spec.n, columns, [(row["u"], row["omega"], [row[c] for c in columns]) for row in rows], ("u",))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ConfigError, so they exit 2 with the JSON error."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Sharing is safe because parse_args keeps no state between calls: each
    call returns a fresh Namespace.
    """
    parser = _Parser(
        prog="levynet",
        description="Workload transforms and traffic limits for Levy-driven tree networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, u=False, regime=False, diagnostics=False, with_empirical=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run-config JSON path")
        if u:
            p.add_argument("--u", type=_positive_u, default=None, help="scaling parameter value")
        seed_help = "Monte Carlo seed override; only simulate, compare and sweep --with-empirical use it"
        p.add_argument("--seed", type=_seed, default=None, help=seed_help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if regime:
            p.add_argument("--regime", choices=["light", "heavy"], default=None)
        if diagnostics:
            p.add_argument("--diagnostics", action="store_true", help="emit per-factor columns")
        if with_empirical:
            p.add_argument("--with-empirical", action="store_true", help="add Monte Carlo columns")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check the structural and rate assumptions", u=True)
    add("structure", cmd_structure, "emit derived structure (phat, sets, classes) as JSON")
    add("lst-exact", cmd_lst_exact, "exact workload transform on a frequency grid", u=True, diagnostics=True)
    add("lst-limit", cmd_lst_limit, "limiting workload transform on a frequency grid", regime=True)
    add("simulate", cmd_simulate, "Monte Carlo transform estimates", u=True)
    add("compare", cmd_compare, "Monte Carlo versus exact transform", u=True)
    add("sweep", cmd_sweep, "exact-to-limit convergence table over u", regime=True, with_empirical=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(load_run_config(args.config), args)
    except (LevynetError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, (ConfigError, StructuralError)) else 3


if __name__ == "__main__":
    sys.exit(main())
