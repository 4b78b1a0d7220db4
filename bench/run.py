"""wirediff benchmark: seeded CLI workloads, checked outputs, per-layer traces.

Usage (from the repository root):

    python3 bench/run.py --workload phase-scan --seed 1 --seconds 20 --trace 0

One client (this process) drives one worker process (``bench/worker.py``)
in a closed loop: it sends an argv, waits for the reply, checks the output
file the op wrote, then sends the next.  The loop runs whole rounds of ops
(see ``workloads.py``) until ``--seconds`` have passed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A fuller record, with the environment, goes to
``bench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 5
IMPORT_CODE = "import wirediff.cli"

# per-layer self times reported by the traced run, by module
TRACED_LAYERS = ("cli", "twobeam", "electron", "classical", "potential",
                 "patterns", "analysis", "numerics")


# The ops make no BLAS calls.  Left alone, numpy's BLAS starts a thread pool
# at import, and its start-up then takes a second core: the import's wall
# time would swing with whatever else runs on that core.  Every process of
# the benchmark (client, worker, set-up launches) runs with one BLAS thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, dead worker ...)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def _launch(args: list[str], env: dict) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable] + args, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return done


def time_setup(env: dict) -> float:
    """Wall time of one fresh interpreter that imports wirediff.cli."""
    start = time.perf_counter()
    _launch(["-c", IMPORT_CODE], env)
    return time.perf_counter() - start


def _parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy import s, wirediff import s excluding numpy) from ``-X importtime``."""
    numpy_us = 0
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        stripped = name.strip()
        top_level = name[1:2] != " "
        if stripped == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
        if top_level and (stripped == "wirediff" or stripped.startswith("wirediff.")):
            total_us += int(cumulative)
    return numpy_us * 1e-6, (total_us - numpy_us) * 1e-6


def measure_imports(env: dict) -> tuple[float, float]:
    numpy_s, wirediff_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        done = _launch(["-X", "importtime", "-c", IMPORT_CODE], env)
        n, w = _parse_importtime(done.stderr)
        numpy_s.append(n)
        wirediff_s.append(w)
    return statistics.median(numpy_s), statistics.median(wirediff_s)


class Worker:
    def __init__(self, env: dict, trace: bool):
        args = [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(args, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _commit() -> str:
    """Commit of the checkout when it is a git work tree, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_ops(worker: Worker, workload: str, seed: int, seconds: float, work: str, trace: bool,
            env: dict):
    """Run whole rounds of ops until ``seconds`` have passed.

    The set-up launches are spread over the run, between rounds, so that
    their median samples the machine over the same span as the ops.
    """
    from checks import check
    from workloads import rounds

    stats = {"attempted": 0, "failed": 0, "unexpected": [], "expected": 0,
             "latencies": [], "values": 0, "traces": [], "rounds": 0,
             "setup": []}
    start = time.perf_counter()
    deadline = start + seconds
    for ops in rounds(workload, seed):
        texts = []
        for index, op in enumerate(ops):
            path = os.path.join(work, f"op{index}.out")
            reply = worker.request({"argv": op.argv + ["--output", path]})
            stats["attempted"] += 1
            stats["values"] += op.values
            stats["latencies"].append(reply["seconds"])
            if trace:
                stats["traces"].append(reply["trace"])
            text = None
            if reply["rc"] != 0:
                errors = [f"exit code {reply['rc']}"]
            else:
                with open(path, "rb") as handle:
                    raw = handle.read()
                text = raw.decode("utf-8")
                errors = check(op, text)
                if op.repeat_of is not None and texts[op.repeat_of] != text:
                    errors.append("output differs from the same argv run earlier in the round")
            texts.append(text)
            if errors:
                stats["failed"] += 1
                if op.fixed:
                    stats["expected"] += 1
                else:
                    stats["unexpected"].append({"argv": op.argv, "errors": errors})
        stats["rounds"] += 1
        now = time.perf_counter()
        if (len(stats["setup"]) < SETUP_LAUNCHES
                and now >= start + len(stats["setup"]) * seconds / SETUP_LAUNCHES):
            stats["setup"].append(time_setup(env))
        if now >= deadline:
            break
    while len(stats["setup"]) < SETUP_LAUNCHES:
        stats["setup"].append(time_setup(env))
    return stats


def _mean_over_ops(values) -> float:
    """Mean over the ops that entered the layer; 0 when no op did.

    Not a median: in ``patterns`` the ops entering ``potential`` split into
    full-mode ops (spinor kinematics per point) and low-energy ops (one
    constructor call), about half each, and a median would report
    whichever group holds the middle op.
    """
    entered = [v for v in values if v]
    return sum(entered) / len(entered) if entered else 0.0


def layer_metrics(traces: list[dict], numpy_s: float, wirediff_s: float) -> dict:
    metrics = {
        "startup.numpy_import_s": (numpy_s, "s"),
        "startup.wirediff_import_s": (wirediff_s, "s"),
    }
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = (
            _mean_over_ops(t["self_s"].get(layer, 0.0) for t in traces), "s")
    evals = [t["counts"].get("numerics.kernel_evals", 0) for t in traces]
    metrics["analysis.amplitude_evals"] = (
        _mean_over_ops(t["counts"].get("analysis.kernel_evals_from", 0) for t in traces),
        "count")
    metrics["numerics.kernel_evals"] = (_mean_over_ops(evals), "count")
    numerics_s = sum(t["self_s"].get("numerics", 0.0) for t in traces)
    metrics["numerics.ns_per_eval"] = (numerics_s / sum(evals) * 1e9 if sum(evals) else 0.0, "ns")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase-scan", "patterns", "dark-points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wirediff", "cli.py")):
        print(f"bench: no wirediff sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    env = _env()
    sys.path.insert(0, HERE)
    try:
        import numpy
        import checks  # noqa: F401  (needs scipy)
    except ImportError as exc:
        print(f"bench: the output checks need numpy and scipy: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    worker = None
    try:
        time_setup(env)  # warm the file cache and write the bytecode cache
        imports = measure_imports(env) if args.trace else None
        worker = Worker(env, bool(args.trace))
        stats = run_ops(worker, args.workload, args.seed, args.seconds, work, bool(args.trace),
                        env)
        end = worker.request({"end": True})
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    latencies = stats["latencies"]
    end_to_end = {
        "setup_s": (statistics.median(stats["setup"]), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "values_per_s": (stats["values"] / sum(latencies), "1/s"),
        "peak_rss_mb": (end["maxrss_kb"] / 1024.0, "MB"),
    }
    if args.trace:
        metrics = layer_metrics(stats["traces"], *imports)
    else:
        metrics = end_to_end
    result = {
        "correct": not stats["unexpected"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "rounds": stats["rounds"], "expected_failures": stats["expected"],
        "unexpected_failures": stats["unexpected"][:20],
        # with --trace 1 these are the traced figures; the gap to an
        # untraced run of the same seed is the tracing overhead
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "setup_launches_s": stats["setup"],
        "latencies_s": latencies,
        "result": result,
    }
    if args.trace:
        record["spans"] = end.get("spans", [])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    for failure in stats["unexpected"][:5]:
        print(f"bench: unexpected failure: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
