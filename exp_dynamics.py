"""Scratch experiment: inspect mitigation dynamics on one seed."""
import sys
import time

import numpy as np

from fairhrv.dataset import generate_synthetic
from fairhrv.mitigation import TrainConfig, evaluate_uncertainties, final_predict, select_checkpoint, train_mtl_with_checkpoints
from fairhrv.pipeline import evaluate_predictions, prepare_split, run_base_model
from fairhrv.saliency import average_saliency_over_windows
from fairhrv.dataset import PROTECTED_SIGNAL_COLUMNS

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0

config = TrainConfig(
    epochs=100, checkpoint_every=5, task_weights=(4.5, 0.5), mc_passes=24,
    keep_rate=0.8, lr=1e-3, batch_size=32, seed=seed,
    lstm_hidden=24, dense_size=16,
)

t0 = time.time()
cohort = generate_synthetic(2000, 0.8, seed)
split = prepare_split(cohort, seed)
print(f"data ready {time.time()-t0:.1f}s  train={len(split.train)} test={len(split.test)}")

t0 = time.time()
base = run_base_model(split, "group", config)
print(f"base trained {time.time()-t0:.1f}s  acc={base.metrics['accuracy']:.3f} "
      f"dir={base.metrics['dir']} f1={base.metrics['f1']:.3f} "
      f"losses[0]={base.train_losses[0]:.3f} losses[-1]={base.train_losses[-1]:.3f}")

t0 = time.time()
ckpts, final_params, losses = train_mtl_with_checkpoints(split.train, "group", config)
print(f"mtl trained {time.time()-t0:.1f}s  loss0={losses[0]:.3f} lossN={losses[-1]:.3f}")

t0 = time.time()
records = evaluate_uncertainties(ckpts, split.train, config)
print(f"uncertainties {time.time()-t0:.1f}s")

sel = select_checkpoint(records)
print(f"selected epoch {sel.epoch} gap={sel.gap:.5f}")
for r, c in zip(records, ckpts):
    preds, probs = final_predict(c, split.test)
    m = evaluate_predictions(preds, split.test.labels(), split.test.protected_values("group"), "group")
    smap = average_saliency_over_windows(c, split.test.feature_tensor(), "anxiety")
    mass = smap.column_l1_mass(PROTECTED_SIGNAL_COLUMNS)
    total = float(np.sum(np.abs(smap.values)))
    star = "*" if r.epoch == sel.epoch else " "
    print(f"{star} ep{r.epoch:3d} c_anx={r.c_anxiety:.5f} c_prot={r.c_protected:.5f} "
          f"gap={r.gap:+.5f} | acc={m['accuracy']:.3f} dir={m['dir'] if m['dir'] is None else round(m['dir'],3)} "
          f"ent={m['prediction_entropy']:.3f} | massS={mass:.3f} frac={mass/total:.3f}")
