"""Checks on the benchmark's tracer, on a tiny workload config.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fairhrv  # noqa: E402
import fairhrv.cli  # noqa: E402
import fairhrv.dataset  # noqa: E402
import fairhrv.mitigation  # noqa: E402
import fairhrv.nnet  # noqa: E402
from traced import traced_run  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, check  # noqa: E402

# Every per-layer metric name of BENCHMARK.json.
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _bindings():
    """Every (module or class, attribute, object) binding of a traced function."""
    out = []
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "fairhrv"]:
        for key, value in vars(module).items():
            out.append((module.__name__, key, value))
    out.append(("Cohort", "feature_tensor", fairhrv.dataset.Cohort.__dict__["feature_tensor"]))
    return out


def test_restore_puts_back_every_original():
    before = _bindings()
    original = fairhrv.nnet.forward
    tracer = Tracer()
    tracer.install()
    # wrapped where it is looked up, with one wrapper per function
    assert fairhrv.mitigation.forward is fairhrv.nnet.forward is not original
    assert fairhrv.nnet.forward.__wrapped__ is original
    tracer.restore()
    after = _bindings()
    assert len(before) == len(after)
    for (mod, key, value), (mod2, key2, value2) in zip(before, after):
        assert (mod, key) == (mod2, key2) and value is value2, f"{mod}.{key} not restored"


def test_wrapper_records_nested_spans_and_restores_on_error():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def boom():
        with tracer.span("outer"):
            inner(1)
            raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        boom()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[0].end >= tracer.spans[1].end > 0


def test_every_layer_function_exists():
    for module_name, attr, _ in LAYER_FUNCTIONS:
        owner = sys.modules[module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_workload(name, tmp_path):
    workload = WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    inputs, runs, tracer, metrics = traced_run(workload, 7, TINY, tmp_path, env)

    assert set(metrics) == set(PER_LAYER), sorted(set(metrics) ^ set(PER_LAYER))
    # the layer spans below the command spans hold at least 90% of the operation
    assert metrics["trace.layer_coverage"][0] >= 0.9
    assert [error for _, _, error in runs] == [None, None]
    outcomes = [check(workload, inputs, out, TINY) for out, _, _ in runs]
    assert [o.errors for o in outcomes] == [[], []]
    assert outcomes[0].artifacts_sha256 == outcomes[1].artifacts_sha256
    if name == "mitigate":
        assert metrics["nnet.mc_forward_forward_calls"][0] == 50
        assert metrics["checkpoint_io.load_checkpoint_ms"][0] > 0
    if name == "extract":
        assert metrics["nnet.forward_train_ms"][0] == 0
        assert metrics["hrv_features.extract_features_calls"][0] > 0


def test_missing_source_tree_exits_nonzero(tmp_path):
    copy = tmp_path / "bench"
    (copy / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (copy / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
