#!/usr/bin/env python3
"""hdx benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload enum-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; hdx is imported from ./src. The workloads
are described in perfbench/README.md. A run:

1. sets up: imports hdx, makes the inputs from --seed, builds the complexes
   and writes the .cx files. The same set-up is repeated in SETUP_PROBES
   child processes, and `setup_s` is the median of all of them;
2. repeats the workload's fixed call list (a pass), each pass on freshly
   built complexes, in a closed loop from this one process, while another
   pass still fits in --seconds. With --trace 1 every second pass is
   traced, and the run reports per-layer metrics instead of end-to-end ones;
3. checks every result after its pass, outside the timed window, and counts
   exceptions, CLI exit code 1 and certificate or digest mismatches as
   failed calls.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the run's environment and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1  # the seed whose result digests golden.json holds
# hdx starts no threads; pin the BLAS pool so numpy starts none either
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("elements_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def load_hdx():
    """Import hdx from ./src of this checkout, never from anywhere else."""
    if not (SRC / "hdx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hdx sources at {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import hdx

    if Path(hdx.__file__).resolve().parent != (SRC / "hdx").resolve():
        raise SystemExit(f"perfbench: imported hdx from {hdx.__file__}, not {SRC}")
    return hdx


def setup(workload: str, seed: int, scale: str, workdir: Path):
    """Import, make the inputs, build the complexes; returns (wl, gen, built, seconds)."""
    t0 = perf_counter()
    load_hdx()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    gen = wl.generate(seed, scale, str(workdir))
    built = wl.build(gen)
    return wl, gen, built, perf_counter() - t0


def probe_setup(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(calls) -> tuple[list, float]:
    """Issue every call back to back; (records, wall seconds)."""
    records = []
    t0 = perf_counter()
    for call in calls:
        c0 = perf_counter()
        try:
            result, error = call.run(), None
        except Exception as exc:  # counted as a failed call, the run goes on
            result, error = None, exc
        records.append((call, result, error, perf_counter() - c0))
    return records, perf_counter() - t0


def gate(records, golden: list[str] | None):
    """Check a pass; returns (failed, digests, elements, problems)."""
    from workloads import Mismatch, digest

    failed, digests, elements, problems = 0, [], 0, []
    for i, (call, result, error, _) in enumerate(records):
        d = None
        try:
            if error is not None:
                raise Mismatch(f"{type(error).__name__}: {error}")
            d = digest(call.verify(result))
            if golden is not None and (i >= len(golden) or golden[i] != d):
                raise Mismatch("digest differs from golden.json")
            elements += call.elements(result)
        except Mismatch as exc:
            failed += 1
            problems.append(f"{call.name}: {exc}")
        digests.append(d)
    return failed, digests, elements, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    """Machine and interpreter details recorded with every result."""
    import numpy

    commit = None  # a checkout without .git has no commit to record
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "hdx").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("enum-large", "sweep-small", "spectral", "elimination"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a toy size, for the self-test")
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe is not None:
        workdir = Path(args.setup_probe) / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            *_, seconds = setup(args.workload, args.seed, args.scale, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: Path) -> int:
    wl, gen, built, main_setup = setup(args.workload, args.seed, args.scale, workdir)
    from tracer import Tracer, per_layer_metric_specs

    setup_samples = [main_setup] + [probe_setup(args, workdir) for _ in range(SETUP_PROBES)]

    golden = None
    if args.scale == "full" and args.seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())["digests"][args.workload]

    walls, traced_walls, durations = [], [], []
    attempted = failed = 0
    elements = None
    problems: list[str] = []
    tracers: list[Tracer] = []
    iteration_s: list[float] = []
    start = perf_counter()
    i = 0
    while True:
        it0 = perf_counter()
        if i > 0:
            built = wl.build(gen)
        calls = wl.calls(gen, built)
        traced = args.trace == 1 and i % 2 == 1
        gc.collect()
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            records, wall = run_pass(calls)
        finally:
            if tracer:
                tracer.uninstall()
        f, _, n, probs = gate(records, golden)
        attempted += len(records)
        failed += f
        problems += probs
        if tracer:
            tracers.append(tracer)
            traced_walls.append(wall)
        else:
            walls.append(wall)
            durations += [r[3] for r in records]
            elements = n
        del built, calls, records
        i += 1
        iteration_s.append(perf_counter() - it0)
        elapsed = perf_counter() - start
        need_more = args.trace == 1 and i < 2
        if not need_more and elapsed + statistics.median(iteration_s) > args.seconds:
            break

    info = environment()
    p_tail, pct = tail(durations)
    info.update({
        "seed": args.seed,
        "workload": args.workload,
        "scale": args.scale,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "passes": i,
        "traced_passes": len(traced_walls),
        "calls_per_pass": attempted // i,
        "call_samples": len(durations),
        "call_tail_percentile": pct,
        "setup_samples_s": setup_samples,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "elements_per_pass": elements,
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
    })
    for p in problems[:20]:
        print(f"perfbench: failed: {p}", file=sys.stderr)

    wall_s = statistics.median(walls)
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "call_p50_ms": 1000.0 * statistics.median(durations),
            "call_tail_ms": 1000.0 * p_tail,
            "elements_per_s": elements / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        values = layer_metrics(tracers, wall_s, traced_walls)
        units = dict(per_layer_metric_specs())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    if args.trace == 0:
        print(f"{args.workload:12s} {'failed_ratio':44s} {failed / attempted:>16.6g} ratio"
              f"  ({failed} of {attempted} calls)")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracers, untraced_wall, traced_walls) -> dict:
    """Per-layer values per traced pass; rates are counts over the layer's self time."""
    from tracer import ELEMENT_LAYERS, HIT_LAYERS, LAYERS

    n = len(tracers)
    counts = [t.elements() for t in tracers]

    def total(attr, name=None):
        return sum(getattr(t, attr)[name] if name else getattr(t, attr) for t in tracers)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for name, _, _ in LAYERS:
        calls, self_s = total("calls", name), total("self_s", name)
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
        if name in ELEMENT_LAYERS:
            elements = sum(c[name] for c in counts)
            out[f"{name}.elements"] = elements / n
            out[f"{name}.elements_per_s"] = rate(elements, self_s)
        if name in HIT_LAYERS:
            out[f"{name}.hit_ratio"] = total("hits", name) / calls if calls else 0.0
    out["cohomology.space_basis.rows"] = total("rows") / n
    out["minimize.locally_minimize.steps"] = total("steps") / n
    out["spectral.mixing_check_all.pairs_per_s"] = rate(
        total("pairs"), total("self_s", "spectral.mixing_check_all"))
    out["spectral.skeleton_alpha.subsets_per_s"] = rate(
        total("subsets"), total("self_s", "spectral.skeleton_alpha"))
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced_wall - 1.0
    return out


if __name__ == "__main__":
    sys.exit(main())
