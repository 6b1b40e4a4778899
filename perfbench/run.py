"""orbitkit benchmark: seeded closed-loop claim workloads.

    python3 perfbench/run.py --workload switching --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one client: claims are issued one after another, each checked
by an independent oracle (``oracle.py``).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs the same claims
untraced and then traced, and reports the per-layer metrics of the traced
pass plus the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process, one after another,
and ends with one JSON object whose metric names carry the workload.

Run from the repository root; orbitkit is imported from ``src/`` of the same
checkout.  Reports and clouds go into a fresh directory under
``.perfbench/runs/`` that is removed when the run ends; the spans of a
traced run are written to ``.perfbench/trace-<workload>.jsonl``.
"""

import os
import sys

# Pin the load before numpy is imported: one process, BLAS and OpenMP on one
# thread, and orbitkit's own worker pools left at the program default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ORBITKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("switching", "jets", "enlarge")
MIN_CLAIMS = 100      # p90 then has at least 10 samples beyond it
SETUP_PROBES = 7      # fresh processes per run; set-up reports their median
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    items: int = 0
    wall_s: float = 0.0


def measure(workload, seed, seconds, run_dir, tracer=None, items=None) -> Pass:
    """Issue claims until ``seconds`` of claim time and MIN_CLAIMS are reached,
    or exactly ``items`` items when given."""
    import claims
    import gen
    import spans

    stream = gen.GENERATORS[workload](seed)
    clock = claims.ClaimClock(tracer)
    if tracer is not None:
        tracer.install(spans.targets())
    clock.install()
    built: dict = {}
    result = Pass()
    deadline = time.perf_counter() + 3 * seconds + 60
    try:
        while True:
            item = next(stream)
            out_dir = run_dir / f"item-{result.items:05d}"
            if item["kind"] == "cli":
                outcome = claims.run_cli_item(item, out_dir, clock)
            else:
                outcome = claims.run_library_item(item, built, tracer)
            result.items += 1
            result.wall_s += outcome.wall_s
            result.latencies += outcome.latencies
            result.verdicts += outcome.verdicts
            if items is not None:
                if result.items >= items:
                    break
            elif (sum(result.latencies) >= seconds and len(result.latencies) >= MIN_CLAIMS) \
                    or time.perf_counter() > deadline:
                break
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return result


def setup_seconds(workload, seed, run_dir) -> float:
    """Median set-up time of fresh processes over the first SETUP_ITEMS items."""
    import gen

    stream = gen.GENERATORS[workload](seed)
    entries = []
    for _ in range(gen.SETUP_ITEMS[workload]):
        item = next(stream)
        entries.append({"header": gen.scenario_header(item)} if item["kind"] == "cli" else {"item": item})
    times = []
    for i in range(SETUP_PROBES):
        job = {"src": str(SRC), "bench": str(BENCH), "out": str(run_dir / f"setup-probe-{i}"),
               "items": entries}
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py")], input=json.dumps(job),
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import numpy
    import scipy

    # the ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not a git repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except OSError:
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "orbitkit_threads": os.environ.get("ORBITKIT_THREADS")}


def tally(verdicts):
    """Split oracle failures into catalogued seed defects (tagged, counted
    per tag) and unexpected ones, which alone make up ``failed``."""
    defects: dict = {}
    for v in verdicts:
        if not v.ok and v.defect:
            defects[v.defect] = defects.get(v.defect, 0) + 1
    unexpected = [v for v in verdicts if not v.ok and not v.defect]
    errs = [v.err for v in verdicts if v.err is not None]
    return defects, unexpected, errs


def end_to_end(p: Pass, setup_s: float) -> dict:
    lat = p.latencies
    return {
        "claims_per_s": (len(lat) / sum(lat), "claims/s"),
        "claim_s.p50": (statistics.median(lat), "s"),
        "claim_s.p90": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orbitkit" / "__init__.py").is_file():
        print(f"error: orbitkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import orbitkit

    if Path(orbitkit.__file__).resolve().parent != (SRC / "orbitkit").resolve():
        print(f"error: imported orbitkit from {orbitkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        setup_s = setup_seconds(args.workload, args.seed, run_dir)
        if args.trace:
            base = measure(args.workload, args.seed, args.seconds / 2, run_dir / "untraced")
            tracer = spans.Tracer()
            traced = measure(args.workload, args.seed, args.seconds, run_dir / "traced",
                             tracer=tracer, items=base.items)
            metrics = spans.per_layer(tracer, traced.wall_s / base.wall_s, traced.wall_s)
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
            verdicts = base.verdicts + traced.verdicts
            shown = {**end_to_end(base, setup_s), **metrics}
        else:
            run = measure(args.workload, args.seed, args.seconds, run_dir)
            metrics = end_to_end(run, setup_s)
            verdicts = run.verdicts
            shown = metrics
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    defects, unexpected, errs = tally(verdicts)
    if args.trace:
        metrics["oracle.known_defects"] = (sum(defects.values()), "count")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine()))
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {len(unexpected) / len(verdicts):.6g} ratio "
          f"({len(unexpected)} of {len(verdicts)})")
    print(f"  known_defects = {sum(defects.values())} count "
          f"(claims reproducing a catalogued seed defect: {defects or 'none'})")
    print(f"  err_over_tol.max = {max(errs, default=0.0):.6g} ratio (over {len(errs)} referenced claims)")
    for v in unexpected[:10]:
        print(f"  FAILED: {v.message}")
    print(json.dumps({"correct": not unexpected, "attempted": len(verdicts), "failed": len(unexpected),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
