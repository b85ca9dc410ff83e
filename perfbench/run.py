"""ipsmf benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``desk-sweep`` (``cmd_sweep_gamma`` on the
c6 desk setup, 2 pool workers), ``yahoo-train`` (``cmd_train`` on a
15,400 x 1,000 simulation) and ``raw-tune`` (``cmd_tune`` over raw
biased/unbiased files). Each call of the workload runs in a fresh process
(``child.py``) with BLAS and OpenMP pinned to one thread, so pool workers x
BLAS threads never exceeds the core count. Calls repeat until ``--seconds``
would be exceeded, at least twice; every repeat of one seed must write a
byte-identical result table, or its models count as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (median time of the ``cmd_*`` call), ``setup_s`` (median time from
process spawn through imports, config and input files up to that call),
``peak_rss_mb`` (median over calls of the largest peak RSS of the process or
any pool worker) and ``mse_mean`` (mean test MSE over the result rows; for
raw-tune the mean best validation score). Failed models over attempted models
(``failed_frac``) is carried by the ``failed`` and ``attempted`` fields.

With ``--trace 1`` one untraced and one traced call are made, and the last
line reports the per-layer metrics of ``tracing.LAYER_METRICS`` plus
``trace.overhead_frac``. The traced table must equal the untraced one.

Everything a run writes goes under ``.perfbench_out/`` in the checkout. The
exit code is 0 when a result line was printed, 2 when the checkout holds no
``src/ipsmf`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mse_mean": "mse"}
MIN_CALLS = 2
# a run must end within 180 s: start no call that could cross this line
DEADLINE_S = 160.0
BLAS_THREADS = 1


def environment(root: Path, workers: int) -> dict:
    """What a result was measured on: source, interpreter, libraries, cores."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ipsmf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cores": os.cpu_count(),
        "pool_workers": workers,
        "blas_threads": BLAS_THREADS,
        "start_method": multiprocessing.get_start_method(),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from the checkout's own .git, if there is one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.run_dir = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.workers = max(1, min(self.workload.workers, os.cpu_count() or 1))
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.started = time.monotonic()

    def call(self, index: int, trace: int) -> dict:
        """One child process; returns its result, or a failure record."""
        rep_dir = self.run_dir / f"call{index}"
        rep_dir.mkdir()
        result_path = rep_dir / "result.json"
        timeout = max(5.0, DEADLINE_S + 10.0 - (time.monotonic() - self.started))
        spawned = time.monotonic()
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--inputs", str(self.run_dir / "inputs"), "--out", str(rep_dir / "out"),
            "--result", str(result_path), "--threads", str(self.workers),
            "--trace", str(trace), "--spawned-at", repr(spawned),
        ]
        with open(rep_dir / "log.txt", "wb") as log:
            proc = subprocess.Popen(command, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            _stop_group(proc)
        elapsed = time.monotonic() - spawned
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        else:
            error = "Timeout" if code is None else f"ExitCode{code}"
            result = {"error": error, "setup_s": None, "wall_s": elapsed}
        result["elapsed_s"] = elapsed
        return result


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the child left running in its session and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(runner: Runner, seconds: float) -> list[dict]:
    calls = []
    while True:
        calls.append(runner.call(len(calls), trace=0))
        elapsed = time.monotonic() - runner.started
        durations = [c["elapsed_s"] for c in calls]
        if elapsed + max(durations) > DEADLINE_S:
            break
        if len(calls) >= MIN_CALLS and elapsed + statistics.median(durations) > seconds:
            break
    return calls


def succeeded(call: dict) -> bool:
    return call["error"] is None and "table_sha256" in call


def account(runner: Runner, calls: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over the calls of one run. A call
    that raised, crashed or timed out fails all its models, and so does one
    whose result table differs from the first good call's."""
    models = runner.workload.models
    notes = []
    failed = 0
    for i, c in enumerate(calls):
        if not succeeded(c):
            failed += models
            notes.append(f"call {i} failed: {c['error']}")
    ok = [c for c in calls if succeeded(c)]
    correct = bool(ok)
    for c in ok:
        if c["problems"]:
            correct = False
            notes.append(f"output check failed: {'; '.join(c['problems'])}")
        if c["table_sha256"] != ok[0]["table_sha256"]:
            failed += models
            notes.append(f"{runner.workload.table} differs between repeats of seed {runner.seed}")
    return correct, models * len(calls), failed, notes


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    # a metric no call could measure reads 0; correct and failed say why
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def end_to_end(runner: Runner, calls: list[dict], attempted: int, failed: int) -> dict:
    ok = [c for c in calls if succeeded(c)]
    timed = ok or calls
    setups = [c["setup_s"] for c in calls if c["setup_s"] is not None]
    values = {
        "wall_s": statistics.median(c["wall_s"] for c in timed),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(c.get("peak_rss_mb", 0.0) for c in timed),
        "mse_mean": ok[0]["mse_mean"] if ok else float("nan"),
    }
    print(f"# {len(calls)} calls, {runner.workers} pool worker(s); per call: "
          + "; ".join(f"wall {c['wall_s']:.3f} s setup {c['setup_s'] or 0:.3f} s"
                      for c in calls))
    for name, value in values.items():
        print(f"# {name:12s} {value:>12.6g} {END_TO_END_UNITS[name]}")
    print(f"# failed_frac  {failed / attempted:>12.6g} ({failed} of {attempted} models)")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(runner: Runner, plain: dict, traced: dict) -> dict:
    if traced.get("threads", runner.workers) != runner.workers:
        print("# traced call ran serially: this pool start method would lose the wrappers")
    layers = dict(traced.get("layers", {}))
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    notes = traced.get("notes", {})
    metrics = {}
    for name, unit, _, moves in tracing.LAYER_METRICS:
        value = layers.get(name, 0.0)
        extra = f" [{notes[name]}]" if name in notes else ""
        print(f"# {name:42s} {value:>14.6g} {unit:6s} -> {moves}{extra}")
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ipsmf" / "__init__.py").is_file():
        print("perfbench: no src/ipsmf under the working directory; run from the "
              "root of an ipsmf checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.trace)
    env = environment(root, runner.workers)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        calls = [runner.call(0, trace=0), runner.call(1, trace=1)]
    else:
        calls = measure(runner, args.seconds)
    correct, attempted, failed, notes = account(runner, calls)
    for note in notes:
        print(f"# {note} (logs under {runner.run_dir})")
    if args.trace:
        metrics = per_layer(runner, *calls)
    else:
        metrics = end_to_end(runner, calls, attempted, failed)
    (runner.run_dir / "run.json").write_text(json.dumps(
        {"environment": env, "calls": calls, "notes": notes}, indent=1))
    report(metrics, correct, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
