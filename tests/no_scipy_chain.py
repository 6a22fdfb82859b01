"""Run every kind of fairhrv command in one interpreter that cannot import scipy.

    python tests/no_scipy_chain.py OUT_DIR

Blocks scipy before fairhrv is imported, then runs synth, audit (of the
dataset and of train-base's predictions), train-base, reweigh-train,
mitigate (2 epochs), saliency, compare, extract --ecg (of a trace and of
the same trace 5 units up) and extract --nni (of the intervals, and of the
same intervals with one written with a digit separator, which only the
row scan reads) at small sizes, writing under OUT_DIR. Prints one JSON object: each
command's exit code, the sha256 of each command's manifest ``artifacts``
map (to diff against another checkout's run) and the scipy modules loaded
at the end. Exits 0 only when every command exited 0, no scipy module was
loaded, the two extract --nni runs wrote the same artifacts and no
exception was ignored (reported to ``sys.unraisablehook``, as a
ResourceWarning raised in ``__del__`` is under ``-W error::ResourceWarning``).
With scipy uninstalled the block changes nothing, so the same script checks
an install that has only numpy. Run it as

    python -X dev -W error::ResourceWarning tests/no_scipy_chain.py OUT_DIR

so that a file left open fails it.
"""

import gc
import hashlib
import json
import math
import sys
from pathlib import Path

sys.modules["scipy"] = None  # from here on, importing scipy or any submodule raises ImportError

UNRAISABLE = []  # each exception reported to sys.unraisablehook, which otherwise only prints it


def record_unraisable(report):
    UNRAISABLE.append(report.exc_type)
    sys.__unraisablehook__(report)


sys.unraisablehook = record_unraisable

from fairhrv.cli import main  # noqa: E402

TRAIN = ["--epochs", "2", "--lstm-hidden", "6", "--dense-size", "4", "--batch-size", "16", "--protected", "group",
         "--seed", "5"]
PROPOSED = ["--ckpt-every", "1", "--mc-passes", "4"]  # the flags that only mitigate and compare take


def rr_intervals(seconds=130):
    """R-R intervals in seconds, swinging 0.75-0.95 s: enough 5 s segments for one window."""
    intervals, t = [], 0.5
    while t < seconds:
        intervals.append(0.85 + 0.1 * math.sin(2 * math.pi * 0.1 * t))
        t += intervals[-1]
    return intervals


def write_ecg(path, seconds=130, fs=250, offset=0.0):
    """Unit impulses at the R peaks of ``rr_intervals``, on a baseline of ``offset``."""
    beats, t = set(), 0.5
    for interval in rr_intervals(seconds):
        beats.add(round(t * fs))
        t += interval
    rows = (f"{i / fs!r},{offset + (1.0 if i in beats else 0.0)}" for i in range(seconds * fs))
    path.write_text("t_seconds,voltage\n" + "\n".join(rows) + "\n")


def write_nni(path, underscore=False):
    """The ``rr_intervals`` in ms; with ``underscore``, the first written with a digit separator, as 8_80.9..."""
    rows = [repr(1000.0 * v) for v in rr_intervals()]
    if underscore:
        rows[0] = f"{rows[0][0]}_{rows[0][1:]}"
    path.write_text("interval_ms\n" + "\n".join(rows) + "\n")


def run(out: Path) -> dict:
    synth = out / "synth"
    data = ["--windows", str(synth / "windows.csv"), "--labels", str(synth / "labels.csv"),
            "--demo", str(synth / "demographics.csv")]
    write_ecg(out / "ecg.csv")
    write_ecg(out / "ecg_offset.csv", offset=5.0)
    write_nni(out / "nni.csv")
    write_nni(out / "nni_underscore.csv", underscore=True)
    commands = {
        "synth": ["synth", "--n", "60", "--bias", "0.8", "--seed", "3", "--out", str(synth)],
        "audit": ["audit", *data, "--protected", "group", "--out", str(out / "audit")],
        "train-base": ["train-base", *data, *TRAIN, "--out", str(out / "base")],
        "audit --predictions": ["audit", *data, "--protected", "group", "--predictions",
                                str(out / "base" / "predictions.csv"), "--out", str(out / "audit_base")],
        "reweigh-train": ["reweigh-train", *data, *TRAIN, "--out", str(out / "reweigh")],
        "mitigate": ["mitigate", *data, *TRAIN, *PROPOSED, "--out", str(out / "mitigate")],
        "saliency": ["saliency", "--checkpoint", str(out / "mitigate" / "checkpoints" / "ckpt_epoch_2.bin"),
                     "--windows", str(out / "mitigate" / "test_windows.csv"), "--out", str(out / "saliency")],
        "compare": ["compare", *data, *TRAIN, *PROPOSED, "--out", str(out / "compare")],
        "extract": ["extract", "--ecg", str(out / "ecg.csv"), "--segment-seconds", "5", "--out", str(out / "extract")],
        "extract --ecg +5": ["extract", "--ecg", str(out / "ecg_offset.csv"), "--segment-seconds", "5",
                             "--out", str(out / "extract_offset")],
        "extract --nni": ["extract", "--nni", str(out / "nni.csv"), "--segment-seconds", "5",
                          "--out", str(out / "extract_nni")],
        "extract --nni 8_80": ["extract", "--nni", str(out / "nni_underscore.csv"), "--segment-seconds", "5",
                               "--out", str(out / "extract_nni_underscore")],
    }
    codes = {name: main(argv) for name, argv in commands.items()}
    loaded = sorted(name for name, module in sys.modules.items()
                    if name.split(".")[0] == "scipy" and module is not None)
    return {"exit_codes": codes, "artifacts_sha256": {name: artifacts_sha256(argv) for name, argv in commands.items()},
            "scipy_modules": loaded}


def artifacts_sha256(argv):
    """sha256 of the ``artifacts`` map in the manifest of the command's --out directory, or None without one."""
    manifest = Path(argv[argv.index("--out") + 1]) / "manifest.json"
    if not manifest.exists():
        return None
    artifacts = json.loads(manifest.read_text())["artifacts"]
    return hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(out_dir)
    print(json.dumps(result, sort_keys=True))
    digests = result["artifacts_sha256"]
    same_nni = digests["extract --nni 8_80"] == digests["extract --nni"]
    gc.collect()  # an object in a reference cycle is finalized, and reports, only when collected
    passed = set(result["exit_codes"].values()) == {0} and not result["scipy_modules"] and same_nni and not UNRAISABLE
    sys.exit(0 if passed else 1)
