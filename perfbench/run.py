"""levynet benchmark: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload transform_deep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With --trace 0 the workload is timed untraced and the
end-to-end metrics are printed.  With --trace 1 it runs once untraced and
once with levynet's public functions wrapped (see tracing.py), prints the
per-layer metrics and the tracing overhead, and writes every span and
counter to .perfbench/trace-<workload>-<seed>.json.  See README.md.
"""

from __future__ import annotations

import os

# One sampler worker and one BLAS thread, before numpy is imported: every
# rate then measures single-core work, and no run uses more threads than
# the machine has cores.
for _var in ("LEVYNET_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # fresh processes timed from spawn to the end of set-up
CHILD_TIMEOUT_S = 60


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_workloads():
    """Import levynet from this checkout's src/ and the workload module."""
    src = ROOT / "src"
    if not (src / "levynet" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"error: no levynet source checkout at {ROOT} (need src/levynet and configs/)")
    sys.path.insert(0, str(src))
    import levynet

    if Path(levynet.__file__).resolve().parent != src / "levynet":
        raise SystemExit(f"error: imported levynet from {levynet.__file__}, not from {src}")
    import workloads

    return workloads


def _setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawn to set-up done."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _manifest_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    workloads = _import_workloads()
    from tracing import NoTrace, Tracer

    args = _parse(argv, workloads.WORKLOADS)
    setup, run = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        setup(ROOT, args.seed, args.seconds)
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading
        print(repr(time.monotonic()))
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    state = setup(ROOT, args.seed, args.seconds)
    outcome = run(state, NoTrace())
    problems = list(outcome.problems)

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            state = setup(ROOT, args.seed, args.seconds)
            traced = run(state, tracer)
        problems += traced.problems
        if (traced.attempted, traced.failed) != (outcome.attempted, outcome.failed):
            problems.append(
                f"traced run attempted/failed {traced.attempted}/{traced.failed}, "
                f"untraced {outcome.attempted}/{outcome.failed}"
            )
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        metrics = workloads.layers(tracer)
        metrics["trace.overhead_pct"] = (100.0 * (traced.run_s / outcome.run_s - 1.0), "%")
    else:
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    units = {k: u for k, (_, u) in metrics.items()}
    if units != _manifest_units(args.trace):
        raise SystemExit(f"error: metrics {units} differ from BENCHMARK.json")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
