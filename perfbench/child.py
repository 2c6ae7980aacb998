"""One benchmark run: a fresh process that runs the whole stochsym pipeline once.

    python3 perfbench/child.py --workload rooms-mc --scale full --seed 1 \
        --rundir DIR --t0 T [--trace]

`--t0` is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the first stage, so it covers
interpreter start, imports, `generate_rooms` and `load_config`.  Artifacts go
to DIR/out; DIR/result.json receives the timings, DIR/config.json the
generated config and, with `--trace`, DIR/spans.json the recorded spans.
The exit code is `run_pipeline`'s.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy
    import scipy
    import stochsym
    from stochsym import cli

    import spans
    from workloads import WORKLOADS, make_config

    rundir = Path(args.rundir)
    config = make_config(cli, WORKLOADS[args.workload], args.scale, str(rundir / "out"))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer, stochsym)

    # outermost wrapper on the first stage, so it marks the end of set-up
    first_stage_at = []
    first = cli._STAGE_FUNCS[spans.STAGES[0]]

    def mark_first_stage(bundle, ctx):
        first_stage_at.append(time.monotonic())
        return first(bundle, ctx)

    cli._STAGE_FUNCS[spans.STAGES[0]] = mark_first_stage

    start = time.perf_counter()
    rc = cli.run_pipeline(config, seed=args.seed)
    pipeline_s = time.perf_counter() - start

    result = {
        "pipeline_s": pipeline_s,
        "setup_s": first_stage_at[0] - args.t0 if first_stage_at else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, pipeline_s)
        tracer.write(rundir / "spans.json")
    (rundir / "config.json").write_text(json.dumps(config))
    (rundir / "result.json").write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
