"""Scores a model the CLI saved: its accuracy on a held-out synthetic cohort.

    python3 perfbench/score.py '<JSON request>'

The request names the cohort files the model was trained from
(``windows``, ``labels``, ``demo``), the workload ``seed``, the held-out
size ``heldout_n``, the saved model (``checkpoint``) and the CLI's
``predictions`` CSV. It prints one JSON object, ``{"accuracy": ...}`` or
``{"error": ...}``.

It runs in an interpreter of its own: a child inherits the peak resident
set of the process that starts it, so the benchmark process must stay
small for ``peak_rss_mb`` to be the CLI's own.
"""

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fairhrv import dataset, pipeline  # noqa: E402
from fairhrv.checkpoint_io import load_checkpoint  # noqa: E402
from fairhrv.fairness import accuracy_score  # noqa: E402
from fairhrv.mitigation import final_predict  # noqa: E402

from workloads import SYNTH_BIAS  # noqa: E402

SPLIT_SEED = 0  # the CLI's default --seed, which seeds its train/test split
HELDOUT_SEED_OFFSET = 1_000_003  # held-out cohort seed = workload seed + this
PREDICTION_TOLERANCE = 1e-9  # recomputed vs written test probabilities
BATCH = 1000  # windows per forward pass, to keep memory small


def predict(params, cohort: dataset.Cohort):
    """(predictions, probabilities) of ``final_predict``, in batches of windows."""
    parts = [final_predict(params, dataset.Cohort(cohort.windows[i:i + BATCH], cohort.attribute_catalog))
             for i in range(0, len(cohort), BATCH)]
    return np.concatenate([p for p, _ in parts]), np.concatenate([p for _, p in parts])


def score(request: dict) -> dict:
    """The CLI's test predictions are recomputed first and must match its
    ``predictions`` CSV, so the score is of the model the CLI used, under
    the CLI's standardization. The held-out cohort is a fresh synthetic one
    from another seed, scaled with the training statistics of the cohort.
    """
    params = load_checkpoint(request["checkpoint"])
    cohort = dataset.load_cohort(request["windows"], request["labels"], request["demo"])
    split = pipeline.prepare_split(cohort, SPLIT_SEED)
    _, probs = predict(params, split.test)
    recomputed = dict(zip((w.sample_id for w in split.test.windows), probs))
    with open(request["predictions"], newline="") as fh:
        written = {row[0]: float(row[2]) for row in list(csv.reader(fh))[1:] if row}
    if written.keys() != recomputed.keys() or any(
        abs(written[k] - recomputed[k]) > PREDICTION_TOLERANCE for k in written
    ):
        return {"error": "test predictions recomputed from the saved model differ from predictions.csv"}
    fresh = dataset.generate_synthetic(request["heldout_n"], SYNTH_BIAS, request["seed"] + HELDOUT_SEED_OFFSET)
    heldout = dataset.Cohort(
        tuple(replace(w, features=split.scaler.transform(w.features)) for w in fresh.windows),
        fresh.attribute_catalog,
    )
    preds, _ = predict(params, heldout)
    return {"accuracy": accuracy_score(preds, heldout.labels())}


if __name__ == "__main__":
    print(json.dumps(score(json.loads(sys.argv[1]))))
