"""Batch command-line front end.

Commands: validate, structure, lst-exact, lst-limit, simulate, compare,
sweep.  Configs and machine outputs are JSON, numeric tables are CSV with
floats printed at 17 significant digits; every CSV row echoes its full
frequency vector.  Outputs are bit-reproducible for a given (config, seed).

Exit codes: 0 success (validate: all assumptions pass), 1 failed validation
verdict, 2 usage, structural or config errors (an unknown or missing flag, an
unreadable config or network file and an --out path that cannot be written
included), 3 numerical errors; for codes 2 and 3 a machine-readable JSON
object is written to stderr.
"""

from __future__ import annotations

import argparse
import csv
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
from .simulate import SimConfig, convergence_study, empirical_lst, simulate_workload


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _open_out(path: str, newline: str | None = None):
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"--out {path} cannot be written: {exc.strerror or exc}") from exc


def _out_stream(args):
    if args.out:
        return _open_out(args.out, newline="")
    return sys.stdout


def _write_csv(args, header: list[str], rows) -> None:
    stream = _out_stream(args)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    finally:
        if stream is not sys.stdout:
            stream.close()


def _write_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _omega_header(n: int) -> list[str]:
    return [f"omega_{j}" for j in range(1, n + 1)]


def _finite_float(text: str) -> float:
    """A --u value: a finite float, else a usage error."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"missing {name}: set it in the config or pass the flag")
    return value


def _sim_config(cfg: RunConfig, args, u: float) -> SimConfig:
    """The config's sim block at u, its seed overridden by --seed."""
    block = dict(cfg.sim)
    if args.seed is not None:
        block["seed"] = args.seed
    return SimConfig(u=u, **block)


def cmd_validate(args) -> int:
    cfg = load_run_config(args.config)
    report = validate_assumptions(cfg.spec, **({} if args.u is None else {"u_probe": args.u}))
    _write_json(args, report.to_dict())
    print(report.pretty(), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_structure(args) -> int:
    cfg = load_run_config(args.config)
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
    _write_json(args, payload)
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


def cmd_lst_exact(args) -> int:
    cfg = load_run_config(args.config)
    u = _require(args.u if args.u is not None else cfg.u, "u (--u)")
    omegas = _require(cfg.omegas, "omega block")
    n = cfg.spec.n
    header = _omega_header(n) + ["value"]
    if args.diagnostics:
        header += ["prefactor"]
        for j in range(1, n):
            header += [
                f"phi_minus_delta_{j}",
                f"phi_minus_delta_hat_{j}",
                f"kappa_minus_psi_delta_hat_{j}",
                f"kappa_minus_psi_delta_{j}",
            ]
    rows = []
    for w in omegas:
        ev = joint_lst_exact(cfg.spec, cfg.model, w, u)
        row = [float(x) for x in w] + [ev.value]
        if args.diagnostics:
            columns = np.column_stack(
                [
                    ev.phi_at_kappa - ev.delta,
                    ev.phi_at_kappa - ev.delta_hat,
                    ev.kappa - ev.psi_delta_hat,
                    ev.kappa - ev.psi_delta,
                ]
            )
            row += [ev.prefactor, *columns.ravel().tolist()]
        rows.append(row)
    _write_csv(args, header, rows)
    return 0


def cmd_lst_limit(args) -> int:
    cfg = load_run_config(args.config)
    regime = _require(args.regime if args.regime else cfg.regime, "regime (--regime)")
    omegas = _require(cfg.omegas, "omega block")
    spec = cfg.spec
    partition = partition_rates(spec)
    tail = cfg.model.tail_pair(regime)
    header = _omega_header(spec.n) + ["value"] + [f"factor_{k}" for k in range(1, partition.m + 1)]
    rows = []
    for w in omegas:
        res = joint_lst_limit(spec, partition, tail, w)
        rows.append([float(x) for x in w] + [res.value] + res.factor_values.tolist())
    _write_csv(args, header, rows)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    omegas = _require(cfg.omegas, "omega block")
    u = _require(args.u if args.u is not None else cfg.u, "u (--u)")
    sim = _sim_config(cfg, args, u)
    samples = simulate_workload(cfg.spec, cfg.model, sim)
    header = _omega_header(cfg.spec.n) + ["empirical", "se", "ci_low", "ci_high"]
    rows = []
    for est in empirical_lst(samples, omegas):
        rows.append([float(x) for x in est.omega] + [est.mean, est.se, est.ci_low, est.ci_high])
    _write_csv(args, header, rows)
    return 0


def cmd_compare(args) -> int:
    cfg = load_run_config(args.config)
    omegas = _require(cfg.omegas, "omega block")
    u = _require(args.u if args.u is not None else cfg.u, "u (--u)")
    sim = _sim_config(cfg, args, u)
    samples = simulate_workload(cfg.spec, cfg.model, sim)
    header = _omega_header(cfg.spec.n) + ["empirical", "se", "exact", "abs_gap", "gap_over_se"]
    rows = []
    for est in empirical_lst(samples, omegas):
        exact = joint_lst_exact(cfg.spec, cfg.model, est.omega, sim.u).value
        gap = abs(est.mean - exact)
        rows.append(
            [float(x) for x in est.omega]
            + [est.mean, est.se, exact, gap, gap / est.se if est.se > 0 else float("inf")]
        )
    _write_csv(args, header, rows)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    regime = _require(args.regime if args.regime else cfg.regime, "regime (--regime)")
    omegas = _require(cfg.omegas, "omega block")
    u_list = _require(cfg.u_list, "u_list")
    spec = cfg.spec
    partition = partition_rates(spec)
    sim = _sim_config(cfg, args, u_list[0]) if args.with_empirical else None
    rows_out = []
    rows = convergence_study(spec, partition, cfg.model, regime, omegas, u_list, sim=sim)
    header = ["u"] + _omega_header(spec.n) + ["exact_scaled", "limit", "gap"]
    if args.with_empirical:
        header += ["empirical", "se"]
    for row in rows:
        out = [row["u"]] + [float(x) for x in row["omega"]] + [
            row["exact_scaled"],
            row["limit"],
            row["gap"],
        ]
        if args.with_empirical:
            out += [row["empirical"], row["se"]]
        rows_out.append(out)
    _write_csv(args, header, rows_out)
    return 0


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
            p.add_argument("--u", type=_finite_float, default=None, help="scaling parameter value")
        seed_help = "Monte Carlo seed override; only simulate, compare and sweep --with-empirical use it"
        p.add_argument("--seed", type=int, default=None, help=seed_help)
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
        return args.fn(args)
    except (ConfigError, StructuralError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (LevynetError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
