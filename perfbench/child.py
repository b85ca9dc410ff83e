"""One measured call of a workload, in a fresh process.

Started by ``run.py`` with the BLAS and OpenMP thread counts already pinned in
the environment. Set-up runs from process start through the imports, the
workload's config and input files and ``load_config``; then the workload's
``cmd_*`` function is called once, optionally under the layer tracer. The
result, including any exception the call raised, is written as JSON to
``--result``; the exit code is 0 whenever that file was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="config and input directory")
    parser.add_argument("--out", required=True, help="output directory of the call")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--threads", type=int, required=True, help="pool workers")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args()

    import workloads
    from ipsmf.cli import load_config

    config_path = workloads.write_inputs(args.workload, args.seed, Path(args.inputs))
    cfg = load_config(config_path)
    out_dir = Path(args.out)
    threads = args.threads
    tracer = tracing = None
    if args.trace:
        import tracing

        if threads > 1 and multiprocessing.get_start_method() != "fork":
            # pool workers would start from a fresh import, without the
            # wrappers: trace the call serially instead
            threads = 1
        tracer = tracing.install(out_dir / "trace")
    setup_s = time.monotonic() - args.spawned_at

    error = None
    start = time.perf_counter()
    try:
        table = workloads.run(args.workload, cfg, out_dir, threads)
    except Exception as exc:  # recorded and counted as failed models by the parent
        error = type(exc).__name__
        traceback.print_exc()
        table = None
    wall_s = time.perf_counter() - start
    # ru_maxrss is in KiB; RUSAGE_CHILDREN holds the largest reaped pool worker
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "threads": threads,
        "error": error,
    }
    if table is not None:
        result["table_sha256"] = hashlib.sha256(Path(table).read_bytes()).hexdigest()
        result["mse_mean"], result["problems"] = workloads.check_outputs(
            args.workload, out_dir, args.seed)
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["notes"] = tracing.layer_metrics(
            tracer.collect(), wall_s, threads)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
