"""Benchmark of the fairhrv command-line pipeline.

    python3 perfbench/run.py --workload {mitigate,train,extract} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. With ``--trace 0`` it generates the
workload's inputs from the seed, then runs operations for ``--seconds``
seconds, each ``fairhrv`` command in a fresh interpreter, one at a time,
and prints the end-to-end metrics. With ``--trace 1`` it runs one operation
in-process with every layer function wrapped and prints per-layer metrics.
The last stdout line is the result object; the line before it holds the
environment, the result fingerprint and the raw samples. See README.md.
"""

import os

# Pinned before anything imports numpy, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, CommandFailed, Config, Outcome, check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ChildRunner:
    """Runs ``fairhrv`` commands as fresh interpreters, one at a time.

    Keeps (wall s, user+sys CPU s, max RSS MB) of each child, read with
    ``os.wait4`` so the figures are the child's own.
    """

    def __init__(self, log: Path):
        self.log = log
        self.env = child_env()
        self.usages = []

    def __call__(self, argv) -> int:
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "fairhrv.cli", *argv],
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.usages.append((wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0))
        return proc.returncode


def tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, seed: int, seconds: float, work: Path):
    """Untraced run: returns (metrics, operation outcomes, info)."""
    config = Config()
    log = work / "cli.log"
    setup_s, setup_digests = [], []

    def set_up(k: int):
        t0 = time.perf_counter()
        inputs = workload.setup(work / f"setup{k}", seed, config, ChildRunner(log))
        setup_s.append(time.perf_counter() - t0)
        setup_digests.append(tree_sha256(work / f"setup{k}"))
        if k:
            shutil.rmtree(work / f"setup{k}")
        return inputs

    inputs = set_up(0)
    # The other setup repeats run between operations, so that the operations
    # spread over the whole run and sample more of the host's speed swings.
    walls, cpus, rss, outcomes = [], [], [], []
    while not outcomes or sum(walls) < seconds:
        out = work / f"op{len(outcomes)}"
        runner = ChildRunner(log)
        try:
            workload.operation(inputs, out, config, runner)
            outcome = check(workload, inputs, out, config)
        except CommandFailed as exc:
            outcome = Outcome(errors=[f"{exc}; CLI output ends: {log.read_text()[-500:]!r}"])
        walls.append(sum(u[0] for u in runner.usages))
        cpus.append(sum(u[1] for u in runner.usages))
        rss.append(max(u[2] for u in runner.usages))
        outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)
        if len(setup_s) < SETUP_REPEATS:
            set_up(len(setup_s))
    while len(setup_s) < SETUP_REPEATS:
        set_up(len(setup_s))

    setup_errors = [] if len(set(setup_digests)) == 1 else ["setup outputs differ between repeats"]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "accuracy": _median_accuracy(outcomes),
    }
    info = {
        "setup_sha256": setup_digests[0],
        "setup_errors": setup_errors,
        "samples": {"setup_s": setup_s, "run_s": walls, "cpu_s": cpus, "peak_rss_mb": rss},
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, outcomes, info


def _median_accuracy(outcomes) -> float:
    values = [o.accuracy for o in outcomes if not o.errors]
    return statistics.median(values) if values else 0.0


def trace(workload, seed: int, work: Path):
    """Traced run: returns (metrics, operation outcomes, info)."""
    from traced import span_table, traced_run

    config = Config()
    inputs, runs, tracer, metrics = traced_run(workload, seed, config, work, child_env())
    outcomes = [Outcome(errors=[error]) if error else check(workload, inputs, out, config)
                for out, _, error in runs]
    op_root = next(i for i, s in enumerate(tracer.spans) if s.name == "op")
    print(span_table(tracer.spans, op_root), file=sys.stderr)
    spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                      "spans": tracer.to_records()}) + "\n")
    info = {"spans_file": str(spans_path.relative_to(ROOT)), "samples": {"op_s": [s for _, s, _ in runs]}}
    return metrics, outcomes, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairhrv" / "cli.py").is_file():
        print(f"error: {SRC / 'fairhrv'} not found; run from a fairhrv source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, outcomes, info = trace(workload, args.seed, work)
        else:
            metrics, outcomes, info = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(info.pop("setup_errors", []))
    # The first operation without errors is the reference; if every one
    # failed, each already counts as failed.
    ref = next((k for k, o in enumerate(outcomes) if not o.errors), 0)
    first = outcomes[ref]
    reference = first.artifacts_sha256
    failed = 0
    for k, outcome in enumerate(outcomes):
        if not outcome.errors and outcome.artifacts_sha256 != reference:
            outcome.errors.append(f"artifacts differ from operation {ref} "
                                  f"({outcome.artifacts_sha256} vs {reference})")
        errors += [f"operation {k}: {e}" for e in outcome.errors]
        failed += bool(outcome.errors)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "fingerprint": {"artifacts_sha256": reference, "chosen_epoch": first.chosen_epoch},
        "quality": {"accuracy": first.accuracy, "dir": first.dir, "dir_miss": first.dir_miss},
        "fail_frac": failed / len(outcomes),
        **info,
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
