"""Monte Carlo estimation of the stationary workload vector.

The workload vector is (I - P^T) applied to the per-node all-time suprema
sup_t (phat_j J(t) - r_j t), truncated at a horizon T.  One concave majorant
of J on [0, T] gives all n of them (Pitman & Uribe Bravo, Ann. Probab. 2012):
cut [0, T] by uniform stick-breaking into lengths l_k and draw independent
increments xi_k ~ J(l_k); then, jointly over the nodes and in law, the
suprema are sum_k (phat_j xi_k - r_j l_k)^+.  Breaking stops once every
remaining length of a chunk is below _FACE_FLOOR relaxation times of the
fastest node, and that remainder is kept as one last face: the faces sum to
J(T), and each supremum misses at most the supremum over that last piece.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ScalingRangeError, StructuralError
from .exact import _first_bad_row, _scaled_frequency, as_omega, joint_lst_exact
from .limit import joint_lst_limit
from .models import HEAVY, LevyModel, TailPair, check_integer, check_positive
from .network import NetworkSpec
from .partition import RateClassPartition

_CHUNK = 1024  # replications per generator
_BREAKS = 32  # stick breaks drawn per block
# Remainder length, in fastest relaxation times, kept as one face; for
# Brownian input it misses about sqrt(1e-9) of that node's workload scale.
_FACE_FLOOR = 1e-9
# Heavy-tailed (alpha < 2) input: target chance of a supremum after T.
_LATE_SUPREMUM = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters under the run schema's rules; the horizon falls back to default_horizon."""

    u: float
    horizon: float | None = None
    n_rep: int = 10_000
    seed: int = 0
    n_workers: int | None = None

    def __post_init__(self):
        check_positive("u", self.u)
        if self.horizon is not None:
            check_positive("horizon", self.horizon)
        check_integer("n_rep", self.n_rep, 2)
        check_integer("seed", self.seed, 0)
        if self.n_workers is not None:
            check_integer("n_workers", self.n_workers, 1)


@dataclass(frozen=True)
class EmpiricalLst:
    """Monte Carlo estimate of E[exp(-<omega, Q>)] with a CLT interval."""

    omega: np.ndarray
    mean: float
    se: float
    ci_low: float
    ci_high: float
    n: int


def _relaxation_time(tail: TailPair, phat, r):
    """Time t at which the input's fluctuation phat (coeff t)**(1/alpha) equals r t."""
    return (tail.coeff * (phat / r) ** tail.alpha) ** tail.beta


def default_horizon(spec: NetworkSpec, model: LevyModel, u: float) -> float:
    """Truncation horizon T from the heavy-traffic tail pair (alpha, coeff).

    tau, the relaxation time at max(phat) and min(r), bounds every node's.
    For alpha = 2 (Brownian, gamma, compound Poisson) the chance of a
    supremum after T decays exponentially and T = 50 tau = 50 max(phat)^2
    coeff / min(r)^2.  With alpha < 2 the jumps have a power tail and that
    chance is about (tau / T)**(alpha - 1) / Gamma(2 - alpha), so T = tau *
    1e-4**(-1 / (alpha - 1)) keeps it near 1e-4.  The rates at u obey the
    one range rule (NetworkSpec.class_rates), else ScalingRangeError.
    """
    tail = model.tail_pair(HEAVY)
    try:  # Python floats: a power past the float range raises OverflowError
        tau = _relaxation_time(tail, float(np.max(spec.phat)), float(np.min(spec.class_rates(u).r)))
        horizon = 50.0 * tau if tail.alpha == 2.0 else tau * _LATE_SUPREMUM ** -tail.beta
    except OverflowError:
        horizon = math.inf
    if not math.isfinite(horizon):
        raise ValueError(f"default horizon overflows at alpha = {tail.alpha}; set it explicitly")
    return horizon


def path_scales(spec: NetworkSpec, model: LevyModel, cfg: SimConfig):
    """Rates, horizon and the length below which the remainder is one face.

    StructuralError where a node is faster than its inflow, r_j > p_ij r_i
    for its parent i: Q_j would be negative.  ScalingRangeError, naming u,
    where a rate, the horizon or that length is not a positive float.
    """
    u = cfg.u
    r = spec.class_rates(u).r
    inflow = (spec.routing.p * r[:, None]).max(axis=0)  # p_ij r_i from the parent i of each node j
    if (faster := np.flatnonzero(r[1:] > inflow[1:]) + 2).size:
        j, i = int(faster[0]), spec.parent[int(faster[0])]
        raise StructuralError(
            f"node {j} is faster than its inflow from node {i} at u = {u:g}: "
            f"r_{j} = {r[j - 1]:g} > p_{i},{j} r_{i} = {inflow[j - 1]:g}, so its workload would be negative"
        )
    horizon = cfg.horizon if cfg.horizon is not None else default_horizon(spec, model, u)
    floor = _FACE_FLOOR * float(np.min(_relaxation_time(model.tail_pair(HEAVY), spec.phat, r)))
    for name, value in (("horizon", horizon), ("face floor", floor)):
        if not 0.0 < value < math.inf:
            raise ScalingRangeError(f"sampler {name} {value:g} is not a positive float at u = {u:g}")
    return r, horizon, floor


def _stick_lengths(horizon: float, floor: float, rng, m: int) -> np.ndarray:
    """Uniform stick-breaking of [0, horizon] for m replications, shape (m, k + 1):
    the k pieces broken off in turn, then the remainder, with k the first
    break count that leaves every row's remainder below floor."""
    breaks = np.empty((m, 0))
    left = np.full((m, 1), horizon)  # left[:, i]: length remaining after i breaks
    while left[:, -1].max() >= floor:
        u = rng.random((m, _BREAKS))
        breaks = np.hstack([breaks, u])
        left = np.hstack([left, left[:, -1:] * np.cumprod(1.0 - u, axis=1)])
    k = int(np.argmax(left.max(axis=0) < floor))
    return np.hstack([left[:, :k] * breaks[:, :k], left[:, k : k + 1]])


def _suprema(spec, model, r, horizon, floor, rng, m):
    """Per-node suprema over [0, horizon] of m replications, shape (m, n), and J(horizon)."""
    lengths = _stick_lengths(horizon, floor, rng, m)
    faces = model.sample_increment(lengths, rng)
    xbar = np.empty((m, spec.n))
    for j in range(spec.n):
        xbar[:, j] = np.maximum(spec.phat[j] * faces - r[j] * lengths, 0.0).sum(axis=1)
    return xbar, faces.sum(axis=1)


def _worker_count(cfg: SimConfig) -> int:
    """cfg.n_workers, else up to 4, capped by LEVYNET_THREADS where that is set
    and not empty: an int >= 1, or ConfigError naming the variable."""
    workers = cfg.n_workers if cfg.n_workers is not None else min(4, os.cpu_count() or 1)
    if cap := os.environ.get("LEVYNET_THREADS"):
        if not (cap.strip().isdecimal() and int(cap) >= 1):
            raise ConfigError(f"LEVYNET_THREADS must be an integer >= 1, got {cap!r}")
        workers = min(workers, int(cap))
    return workers


def _run_chunks(cfg: SimConfig, draw) -> np.ndarray:
    """Rows of draw(rng, m) over chunks of _CHUNK replications, each with its own
    generator spawned from cfg.seed: bit-identical whatever the worker count."""
    sizes = np.diff([*range(0, cfg.n_rep, _CHUNK), cfg.n_rep])
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    tasks = [(np.random.default_rng(s), int(m)) for s, m in zip(seeds, sizes)]

    workers = _worker_count(cfg)
    if workers == 1 or len(tasks) == 1:
        parts = [draw(rng, m) for rng, m in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda t: draw(*t), tasks))
    return np.concatenate(parts)


def workload_from_suprema(spec: NetworkSpec, xbar: np.ndarray) -> np.ndarray:
    """Map per-node suprema to workloads: row-wise (I - P^T) times the vector."""
    return xbar @ (np.eye(spec.n) - spec.routing.p)


def simulate_workload(spec: NetworkSpec, model: LevyModel, cfg: SimConfig) -> np.ndarray:
    """Stationary workload samples, shape (n_rep, n); deterministic in (seed, cfg)."""
    r, horizon, floor = path_scales(spec, model, cfg)
    xbar = _run_chunks(cfg, lambda rng, m: _suprema(spec, model, r, horizon, floor, rng, m)[0])
    return workload_from_suprema(spec, xbar)


def empirical_lst(samples: np.ndarray, omegas) -> list[EmpiricalLst]:
    """Sample mean, standard error and 95% CI of exp(-<omega, Q>) per omega,
    each omega checked by exact.as_omega."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need a 2-d sample array with at least two replications")
    out = []
    for omega in omegas:
        w = as_omega(omega, samples.shape[1])[0]
        vals = np.exp(-(samples @ w))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        out.append(EmpiricalLst(w, mean, se, mean - 1.96 * se, mean + 1.96 * se, len(vals)))
    return out


def horizon_diagnostic(
    spec: NetworkSpec, model: LevyModel, cfg: SimConfig, omegas
) -> list[dict]:
    """Truncation check: estimates at horizon T versus 2T on common paths.

    [0, T] and [T, 2T] are two independent stick sets, joined at J(T), the
    sum of the first set's faces: per node sup over [0, 2T] = max(sup over
    [0, T], phat J(T) - r T + sup over [T, 2T] of the path restarted at T).
    The difference per omega is then a paired estimate whose standard error
    reflects only the mass beyond T.  Each omega is checked by exact.as_omega
    before any path is drawn.
    """
    omegas = [as_omega(w, spec.n)[0] for w in omegas]
    r, horizon, floor = path_scales(spec, model, cfg)

    def draw(rng, m):
        xbar, j_end = _suprema(spec, model, r, horizon, floor, rng, m)
        later, _ = _suprema(spec, model, r, horizon, floor, rng, m)
        doubled = np.maximum(xbar, np.outer(j_end, spec.phat) - r * horizon + later)
        return np.hstack([xbar, doubled])

    both = _run_chunks(cfg, draw)
    q_half = workload_from_suprema(spec, both[:, : spec.n])
    q_full = workload_from_suprema(spec, both[:, spec.n :])
    rows = []
    for w in omegas:
        v_half = np.exp(-(q_half @ w))
        v_full = np.exp(-(q_full @ w))
        diff = v_half - v_full
        rows.append(
            {
                "omega": w,
                "mean_horizon": float(v_half.mean()),
                "mean_doubled": float(v_full.mean()),
                "diff": float(diff.mean()),
                "se_diff": float(diff.std(ddof=1) / math.sqrt(len(diff))),
                "se": float(v_full.std(ddof=1) / math.sqrt(len(v_full))),
            }
        )
    return rows


def convergence_study(
    spec: NetworkSpec,
    partition: RateClassPartition,
    model: LevyModel,
    regime: str,
    omegas,
    u_list,
    sim: SimConfig | None = None,
) -> list[dict]:
    """Gap table between the scaled exact transform and its limit over u.

    For each u the exact transform is evaluated at omega * r(u)**beta, the
    frequency scaling under which the workload law converges; the limit
    column is u-independent.  Both scale through exact._scaled_frequency:
    a nonzero frequency whose scaled value overflows or underflows below the
    normal float range raises ScalingRangeError, naming the node and u (or
    the limit).  The limit and each u's exact column are one call over the
    grid of omegas, the scaling included, and each raises by the grid rule
    (exact._first_bad_row): a row's scaling and exact call are evaluated
    together, so a row's error beats any later row's.  When `sim` is
    given, an empirical column at the same scaled frequencies is added (seed
    offset by the u index).  A spec that is not the partition's network
    raises StructuralError.
    """
    partition.require_spec(spec)
    tail = model.tail_pair(regime)
    limit_vals = np.atleast_1d(joint_lst_limit(spec, partition, tail, omegas).value).tolist()
    omegas = np.atleast_2d(as_omega(omegas, spec.n)[0])  # one vector is a grid of one row

    rows = []
    for iu, u in enumerate(u_list):
        r = spec.class_rates(u).r
        samples = None
        if sim is not None:
            cfg = replace(sim, u=u, seed=sim.seed + iu)
            samples = simulate_workload(spec, model, cfg)

        def exact_at(w):  # one row or the grid: its scaling, then its exact transform
            scaled = _scaled_frequency(w, r, tail.beta, f"at u = {u:g}", "r_{}(u)")
            return scaled, joint_lst_exact(spec, model, scaled, u).value

        scaled, exacts = _first_bad_row(exact_at, omegas)
        estimates = empirical_lst(samples, scaled) if samples is not None else [None] * len(omegas)
        for w, lim, exact, est in zip(omegas, limit_vals, exacts.tolist(), estimates):
            row = {
                "u": float(u),
                "omega": w,
                "exact_scaled": exact,
                "limit": lim,
                "gap": abs(exact - lim),
            }
            if est is not None:
                row["empirical"] = est.mean
                row["se"] = est.se
            rows.append(row)
    return rows
