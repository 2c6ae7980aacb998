"""Pipeline benchmark for stochsym: whole-run metrics, a correctness gate, and layer tracing.

    python3 perfbench/run.py --workload rooms-mc --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from the repository root (it imports `src/stochsym`; nothing needs
installing).  A run is a closed loop with one client: this process starts a
fresh `child.py` process per pipeline run, one after another, until
`--seconds` is used up, so set-up time and peak RSS are per run.  Each run
gets a temporary output directory under `.perfbench_work/`; its artifacts
are checked (see `workloads.check_outputs`), measured and deleted.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json as medians over
the runs.  `--trace 1` alternates untraced and traced runs and reports the
per-layer metrics (lower medians over the traced runs) together with the tracing
overhead; the spans of every traced run are kept in
`.perfbench_work/traces/`.  The last line of standard output is the result
object; the line before it records the environment and every run.
`--workload all` runs every workload in both modes.

The workload seed goes to `run_pipeline(seed=...)`, the Monte Carlo seed;
every run of one invocation uses it, so their outputs are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: a hung pipeline is killed after this long and its run counted as failed
CHILD_TIMEOUT_S = 150
#: traced runs whose stage spans cover less of run_pipeline than this fail
MIN_STAGE_COVERAGE = 0.95
#: environment variables that set BLAS / OpenMP thread pools, recorded as found
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_child(workload: str, scale: str, seed: int, traced: bool) -> dict:
    """One pipeline run in a fresh process; returns its timings and failed checks."""
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--scale", scale, "--seed", str(seed), "--rundir", str(rundir)]
        if traced:
            cmd.append("--trace")
        env = dict(os.environ)
        env.pop("STOCHSYM_THREADS", None)  # the program's default thread count
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"failures": [f"killed after {CHILD_TIMEOUT_S} s"]}
        run = {"failures": []}
        result_path = rundir / "result.json"
        if result_path.exists():
            run.update(json.loads(result_path.read_text()))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            run["failures"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        elif not result_path.exists():
            run["failures"].append("no result written")
        else:
            config = json.loads((rundir / "config.json").read_text())
            run["failures"] += check_outputs(WORKLOADS[workload], scale, config,
                                             rundir / "out")
        run["artifact_mb"] = _dir_bytes(rundir / "out") / 1e6
        if traced and "layers" in run:
            coverage = run["layers"]["trace.stage_coverage"]
            if coverage < MIN_STAGE_COVERAGE:
                run["failures"].append(f"stage spans cover {coverage:.3f} of pipeline_s")
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(rundir / "spans.json"),
                        traces / f"{rundir.name}-{scale}-seed{seed}.json")
        return run
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(workload: str, scale: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict | None:
    """Runs for `seconds`; the result object, or None when no run produced timings."""
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    longest = 0.0
    while True:
        began = time.monotonic()
        plain.append(run_child(workload, scale, seed, traced=False))
        if trace:
            traced.append(run_child(workload, scale, seed, traced=True))
        # start another round only if one 20% longer than any so far still fits
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + 1.2 * longest > deadline:
            break

    runs = plain + traced
    failed = sum(1 for r in runs if r["failures"])
    timed = [r for r in plain if "pipeline_s" in r and r.get("setup_s") is not None]
    if not timed or (trace and not any("layers" in r for r in traced)):
        _report_failures(workload, runs)
        return None

    def median(key, rows=timed):
        return statistics.median(r[key] for r in rows)

    if trace:
        layered = [r for r in traced if "layers" in r]
        # the lower median is one run's value, so counts stay exact integers
        values = {name: statistics.median_low(r["layers"][name] for r in layered)
                  for name in layered[0]["layers"]}
        values["trace.overhead_s"] = median("pipeline_s", layered) - median("pipeline_s")
        declared = spec["per_layer"]
    else:
        values = {name: median(name) for name in
                  ("pipeline_s", "setup_s", "peak_rss_mb", "artifact_mb")}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = {
        "workload": workload, "scale": scale, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "versions": timed[0]["versions"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "stochsym_threads_cleared": os.environ.get("STOCHSYM_THREADS"),
        "samples": len(timed), "samples_traced": len(traced),
        "fail_frac": failed / len(runs),
        "runs": [{k: r.get(k) for k in ("pipeline_s", "setup_s", "peak_rss_mb",
                                         "artifact_mb", "failures")} for r in runs],
    }
    print(json.dumps({"info": info}))
    _report_failures(workload, runs)
    for name, m in metrics.items():
        print(f"{workload:12s} {name:44s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def _report_failures(workload: str, runs: list) -> None:
    for i, run in enumerate(runs):
        for failure in run["failures"]:
            print(f"{workload} run {i}: FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: 4 rooms and 48 trials, for the harness smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stochsym" / "cli.py").is_file():
        print(f"stochsym source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        result = measure(args.workload, args.scale, args.seed, args.seconds,
                         bool(args.trace), spec)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, args.scale, args.seed, args.seconds, trace, spec)
            if result is None:
                return 1
            print(json.dumps(result))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}:{k}": v
                                     for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
