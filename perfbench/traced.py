"""The traced run: one operation in-process, with every layer function wrapped.

It runs the workload's setup traced, the operation once traced and once
untraced (both in this process, so their difference is the tracing
overhead), and derives the per-layer metrics from the spans.
"""

import statistics
import subprocess
import sys
import time
from collections import defaultdict

import fairhrv.cli

from tracer import Tracer, ancestor_names, descendants, self_times
from workloads import CommandFailed

TRAINERS = frozenset({
    "mitigation.train_baseline", "mitigation.train_reweighted", "mitigation.train_mtl_with_checkpoints",
})
IMPORT_REPEATS = 3


def in_process_cli(argv) -> int:
    # looked up on each call, so the tracer's wrapper is used while installed
    return fairhrv.cli.main(argv)


def run_operation(workload, inputs, out, config):
    """Runs one operation in-process; returns None, or the error of the command that failed."""
    try:
        workload.operation(inputs, out, config, in_process_cli)
    except CommandFailed as exc:
        return str(exc)
    return None


def fresh_import_s(env) -> float:
    """Seconds a fresh interpreter spends in ``import fairhrv.cli``."""
    code = "import time; t = time.perf_counter(); import fairhrv.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def traced_run(workload, seed, config, work, env):
    """Returns (inputs, runs, tracer, metrics).

    ``runs`` is [(op dir, wall s, error or None)], traced then untraced. A
    failing setup raises ``CommandFailed``; a failing operation is reported
    in its run, and the metrics come from the spans it left.
    """
    import_s = statistics.median(fresh_import_s(env) for _ in range(IMPORT_REPEATS))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            inputs = workload.setup(work / "setup", seed, config, in_process_cli)
    finally:
        tracer.restore()

    # Traced first: like a CLI run it pays the first-call costs, so warm-up
    # can only inflate the overhead reported below, never hide it.
    tracer.install()
    try:
        with tracer.span("op"):
            traced_error = run_operation(workload, inputs, work / "traced", config)
    finally:
        tracer.restore()

    t0 = time.perf_counter()
    untraced_error = run_operation(workload, inputs, work / "untraced", config)
    untraced_s = time.perf_counter() - t0

    roots = {s.name: i for i, s in enumerate(tracer.spans) if s.parent == -1}
    traced_s = tracer.spans[roots["op"]].duration
    synth_s = sum(tracer.spans[i].duration for i in descendants(tracer.spans, roots["setup"])
                  if tracer.spans[i].name == "dataset.generate_synthetic")

    epochs = getattr(config, workload.epochs_field) if workload.epochs_field else 0
    metrics = layer_metrics(tracer.spans, roots["op"], epochs)
    metrics.update({
        "dataset.generate_synthetic_s": (synth_s, "s"),
        "cli.import_s": (import_s, "s"),
        "trace.op_untraced_s": (untraced_s, "s"),
        "trace.op_traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    runs = [(work / "traced", traced_s, traced_error), (work / "untraced", untraced_s, untraced_error)]
    return inputs, runs, tracer, metrics


def layer_metrics(spans, op_root: int, epochs: int) -> dict:
    """Per-layer metrics from the spans below ``op_root``: name -> (value, unit).

    A layer that the operation never calls reports 0.
    """
    by_name = defaultdict(list)
    for i in descendants(spans, op_root):
        by_name[spans[i].name].append(i)
    op_s = spans[op_root].duration
    selfs = self_times(spans)

    def durations(name, within=None):
        return [spans[i].duration for i in by_name[name]
                if within is None or ancestor_names(spans, i) & within]

    def total(name, within=None):
        return sum(durations(name, within))

    def median(name, within=None):
        values = durations(name, within)
        return statistics.median(values) if values else 0.0

    def count(name, within=None):
        return len(durations(name, within))

    def work(name):
        return sum(spans[i].n for i in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    checkpoints = work("mitigation.evaluate_uncertainties")
    cli_s = total("cli.main")
    cli_self_s = sum(selfs[i] for i in by_name["cli.main"])
    return {
        "nnet.mc_forward_s": (median("nnet.mc_forward"), "s"),
        "nnet.mc_forward_forward_calls": (
            ratio(count("nnet.forward", {"nnet.mc_forward"}), count("nnet.mc_forward")), "count"),
        "mitigation.evaluate_uncertainties_s_per_checkpoint": (
            ratio(total("mitigation.evaluate_uncertainties"), checkpoints), "s"),
        "mitigation.evaluate_uncertainties_share": (
            ratio(total("mitigation.evaluate_uncertainties"), op_s), "fraction"),
        "nnet.forward_train_ms": (1e3 * median("nnet.forward", TRAINERS), "ms"),
        "nnet.backward_ms": (1e3 * median("nnet.backward", TRAINERS), "ms"),
        "nnet.adam_step_ms": (1e3 * median("nnet.adam_step", TRAINERS), "ms"),
        "nnet.sample_dropout_mask_ms": (1e3 * median("nnet.sample_dropout_mask", TRAINERS), "ms"),
        "mitigation.train_s_per_epoch": (ratio(sum(total(t) for t in TRAINERS), epochs), "s"),
        "mitigation.train_batches": (count("nnet.forward", TRAINERS), "count"),
        "dataset.load_cohort_ms_per_window": (
            ratio(1e3 * total("dataset.load_cohort"), work("dataset.load_cohort")), "ms"),
        "dataset.standardize_s": (total("dataset.standardize"), "s"),
        "dataset.feature_tensor_calls": (count("dataset.feature_tensor"), "count"),
        "dataset.feature_tensor_s": (total("dataset.feature_tensor"), "s"),
        "dataset.write_windows_csv_ms_per_window": (
            ratio(1e3 * total("dataset.write_windows_csv"), work("dataset.write_windows_csv")), "ms"),
        "hrv_features.read_ecg_csv_s": (total("hrv_features.read_ecg_csv"), "s"),
        "hrv_features.detect_r_peaks_s": (total("hrv_features.detect_r_peaks"), "s"),
        "hrv_features.extract_features_ms": (1e3 * median("hrv_features.extract_features"), "ms"),
        "hrv_features.extract_features_calls": (count("hrv_features.extract_features"), "count"),
        "checkpoint_io.save_checkpoint_ms": (1e3 * median("checkpoint_io.save_checkpoint"), "ms"),
        "checkpoint_io.load_checkpoint_ms": (1e3 * median("checkpoint_io.load_checkpoint"), "ms"),
        "fileio.sha256_file_s": (total("fileio.sha256_file"), "s"),
        "fileio.atomic_write_s": (total("fileio.atomic_write_bytes"), "s"),
        "fileio.bytes_written": (work("fileio.atomic_write_bytes"), "bytes"),
        "saliency.average_saliency_s": (total("saliency.average_saliency_over_windows"), "s"),
        "saliency.write_saliency_svg_ms": (1e3 * median("saliency.write_saliency_svg"), "ms"),
        "nnet.input_gradient_s": (total("nnet.input_gradient"), "s"),
        "mitigation.final_predict_s": (total("mitigation.final_predict"), "s"),
        "cli.self_s": (cli_self_s, "s"),
        "trace.layer_coverage": (ratio(cli_s - cli_self_s, op_s), "fraction"),
    }


def span_table(spans, op_root: int) -> str:
    """Calls, inclusive and self seconds and share of the operation, per span name.

    Rows marked ``stage`` are non-``pipeline`` functions always called
    directly by a command or by a ``pipeline`` function; their shares do
    not overlap.
    """
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0, True])
    for i in descendants(spans, op_root):
        row = rows[spans[i].name]
        row[0] += 1
        row[1] += spans[i].duration
        row[2] += selfs[i]
        parent = spans[spans[i].parent].name
        row[3] &= (parent == "cli.main" or parent.startswith("pipeline.")) and not spans[i].name.startswith("pipeline.")
    op_s = spans[op_root].duration
    lines = [f"{'span':46s} {'calls':>6s} {'incl_s':>9s} {'self_s':>9s} {'share':>6s}"]
    for name, (calls, incl, own, stage) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:46s} {calls:6d} {incl:9.3f} {own:9.3f} {incl / op_s:6.1%}{'  stage' if stage else ''}")
    return "\n".join(lines)
