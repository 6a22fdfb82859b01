"""Frozen per-window synthetic generator and per-row windows-CSV writer, kept as bit-identity oracles.

These are the ``dataset.generate_synthetic`` and ``write_windows_csv``
bodies as they were before the noise became one draw and the rows were
formatted in chunks: one AR(1) loop per window, and one ``repr`` row per
line of a single joined text. The tests require the same float64 bits
and the same file bytes from the two, not a tolerance. Do not edit the
arithmetic here to follow a change in ``dataset``.
"""

import math

import numpy as np

from fairhrv.dataset import (
    ANXIETY_SIGNAL_COLUMNS,
    N_FEATURES,
    PROTECTED_SIGNAL_COLUMNS,
    SYNTH_ANXIETY_SHIFT,
    SYNTH_AR_COEFF,
    SYNTH_GROUP_FRACTION,
    SYNTH_LABEL_DELTA,
    SYNTH_PARTICIPANT_SIGMA,
    SYNTH_PROTECTED_SHIFT,
    SYNTH_RAW_CATEGORIES,
    WINDOW_STEPS,
    WINDOWS_HEADER,
    AttributeCoding,
    Cohort,
    LabeledWindow,
)
from fairhrv.hrv_features import FEATURE_NAMES
from fairhrv.rng import substream


def reference_windows_csv_bytes(sample_ids, participant_ids, features) -> bytes:
    lines = [
        f"{sample_id},{participant_id},{step},{','.join(map(repr, row))}"
        for sample_id, participant_id, window in zip(sample_ids, participant_ids, features)
        for step, row in enumerate(window.tolist())
    ]
    return ("\n".join([",".join(WINDOWS_HEADER), *lines]) + "\n").encode("utf-8")


def reference_generate_synthetic(n: int, bias_strength: float, seed: int, attribute: str = "group") -> Cohort:
    rng = substream(seed, "synth")

    n_participants = max(10, n // 20)
    base, extra = divmod(n, n_participants)
    windows_per_participant = [base + (1 if i < extra else 0) for i in range(n_participants)]

    n_priv = int(math.ceil(SYNTH_GROUP_FRACTION * n_participants))
    group_of_participant = np.zeros(n_participants, dtype=np.int64)
    group_of_participant[rng.permutation(n_participants)[:n_priv]] = 1

    participant_ids = [f"p{i:04d}" for i in range(n_participants)]
    window_groups = []
    window_participants = []
    for i, count in enumerate(windows_per_participant):
        window_groups.extend([int(group_of_participant[i])] * count)
        window_participants.extend([participant_ids[i]] * count)
    window_groups = np.array(window_groups)

    labels = np.zeros(n, dtype=np.int64)
    for group in (0, 1):
        sign = 1.0 if group == 1 else -1.0
        rate = 0.5 + sign * SYNTH_LABEL_DELTA * bias_strength
        members = np.flatnonzero(window_groups == group)
        n_pos = int(math.floor(rate * len(members) + 0.5))
        chosen = rng.permutation(len(members))[:n_pos]
        labels[members[chosen]] = 1

    anx_cols = [FEATURE_NAMES.index(name) for name in ANXIETY_SIGNAL_COLUMNS]
    prot_cols = [FEATURE_NAMES.index(name) for name in PROTECTED_SIGNAL_COLUMNS]
    intercepts = rng.normal(0.0, SYNTH_PARTICIPANT_SIGMA, size=(n_participants, N_FEATURES))
    pid_index = {pid: i for i, pid in enumerate(participant_ids)}

    rho = SYNTH_AR_COEFF
    innovation_std = math.sqrt(1.0 - rho**2)
    windows = []
    for i in range(n):
        noise = np.empty((WINDOW_STEPS, N_FEATURES))
        noise[0] = rng.normal(0.0, 1.0, size=N_FEATURES)
        steps = rng.normal(0.0, innovation_std, size=(WINDOW_STEPS - 1, N_FEATURES))
        for t in range(1, WINDOW_STEPS):
            noise[t] = rho * noise[t - 1] + steps[t - 1]
        feats = noise + intercepts[pid_index[window_participants[i]]]
        feats[:, anx_cols] += SYNTH_ANXIETY_SHIFT * (2 * labels[i] - 1)
        feats[:, prot_cols] += SYNTH_PROTECTED_SHIFT * bias_strength * (2 * window_groups[i] - 1)
        windows.append(
            LabeledWindow(
                sample_id=f"s{i:06d}",
                participant_id=window_participants[i],
                features=feats,
                anxiety=int(labels[i]),
            )
        )

    priv_cat, unpriv_cat = SYNTH_RAW_CATEGORIES
    coding = AttributeCoding(
        mapping={priv_cat: 1, unpriv_cat: 0},
        counts={priv_cat: n_priv, unpriv_cat: n_participants - n_priv},
        codes={pid: int(group_of_participant[i]) for i, pid in enumerate(participant_ids)},
    )
    return Cohort(tuple(windows), {attribute: coding})
