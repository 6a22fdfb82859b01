"""Cohort construction: labels, protected attributes, splits, synthesis.

A cohort is a set of labeled feature windows (24 time steps x 25 HRV
features) with binary anxiety labels and binary protected attributes.
This module covers majority-rule protected-attribute encoding, seeded
75/25 splitting, train-statistics standardization, a synthetic
biased-cohort generator, and the CSV/JSON interchange formats.

Cohorts are immutable after construction and safe to share across threads.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fileio import read_csv, write_csv, write_json
from .hrv_features import FEATURE_NAMES
from .rng import substream

WINDOW_STEPS = 24
N_FEATURES = len(FEATURE_NAMES)

# Columns the synthetic generator ties to the protected attribute; the
# same columns the saliency comparison watches.
PROTECTED_SIGNAL_COLUMNS = ("sdsd", "nni_20", "pnni_20")
ANXIETY_SIGNAL_COLUMNS = ("mean_nni", "rmssd", "mean_hr", "lf", "hf", "csi")


class DegenerateGroup(ValueError):
    """Only one raw category is present for a protected attribute."""


class NotBinary(ValueError):
    """More than two raw categories for a protected attribute."""


class TooSmall(ValueError):
    """Cohort too small to split."""


class BadStrength(ValueError):
    """bias_strength outside [0, 1]."""


class MissingAttribute(KeyError):
    """Requested protected attribute not present on the cohort."""


@dataclass(frozen=True)
class LabeledWindow:
    """One sample: a 24x25 feature matrix with its labels."""

    sample_id: str
    participant_id: str
    features: np.ndarray
    anxiety: int
    protected: dict

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        if feats.shape != (WINDOW_STEPS, N_FEATURES):
            raise ValueError(f"window must be {WINDOW_STEPS}x{N_FEATURES}, got {feats.shape}")
        if self.anxiety not in (0, 1):
            raise ValueError(f"anxiety label must be 0 or 1, got {self.anxiety}")
        for key, value in self.protected.items():
            if value not in (0, 1):
                raise ValueError(f"protected attribute {key!r} must be 0 or 1, got {value}")


@dataclass(frozen=True)
class AttributeCoding:
    """Raw-category -> binary code mapping with raw-category counts."""

    mapping: dict
    counts: dict

    def privileged_category(self) -> str:
        return next(cat for cat, code in self.mapping.items() if code == 1)

    def unprivileged_category(self) -> str:
        return next(cat for cat, code in self.mapping.items() if code == 0)


@dataclass(frozen=True)
class Cohort:
    windows: tuple
    attribute_catalog: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        if self.windows:
            keys = set(self.windows[0].protected)
            for w in self.windows:
                if set(w.protected) != keys:
                    raise ValueError("all windows must share the same protected attribute keys")
        for name, coding in self.attribute_catalog.items():
            priv = coding.counts.get(coding.privileged_category(), 0)
            unpriv = coding.counts.get(coding.unprivileged_category(), 0)
            if priv < unpriv:
                raise ValueError(f"privileged class of {name!r} must be the majority")

    def __len__(self):
        return len(self.windows)

    def feature_tensor(self) -> np.ndarray:
        """(n, 24, 25) array of all windows."""
        return np.stack([w.features for w in self.windows]) if self.windows else np.zeros((0, WINDOW_STEPS, N_FEATURES))

    def labels(self) -> np.ndarray:
        return np.array([w.anxiety for w in self.windows], dtype=np.int64)

    def protected_values(self, attribute: str) -> np.ndarray:
        if self.windows and attribute not in self.windows[0].protected:
            raise MissingAttribute(attribute)
        return np.array([w.protected[attribute] for w in self.windows], dtype=np.int64)

    def attribute_names(self):
        return tuple(self.windows[0].protected) if self.windows else ()


@dataclass(frozen=True)
class FeatureScaler:
    """Train-set per-feature statistics used to standardize windows."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


@dataclass(frozen=True)
class SplitCohort:
    train: Cohort
    test: Cohort
    seed: int
    scaler: FeatureScaler = None


def encode_protected(raw, attribute_name: str):
    """Map a two-category attribute to {privileged: 1, unprivileged: 0}.

    The majority category becomes the privileged class. An exact tie is
    broken toward the lexicographically smaller category name, with a
    warning.

    Returns:
        (codes, AttributeCoding): per-participant binary codes plus the
        category mapping and counts.

    Raises:
        DegenerateGroup: only one category present.
        NotBinary: more than two categories present.
    """
    counts = {}
    for value in raw.values():
        counts[value] = counts.get(value, 0) + 1
    if len(counts) < 2:
        raise DegenerateGroup(f"{attribute_name!r} has a single category: {sorted(counts)}")
    if len(counts) > 2:
        raise NotBinary(f"{attribute_name!r} has {len(counts)} categories; coarsen to two first")
    (cat_a, n_a), (cat_b, n_b) = sorted(counts.items())
    if n_a == n_b:
        warnings.warn(
            f"{attribute_name!r}: category counts tied ({n_a}); "
            f"treating {cat_a!r} as privileged",
            RuntimeWarning,
            stacklevel=2,
        )
        privileged = cat_a
    else:
        privileged = cat_a if n_a > n_b else cat_b
    mapping = {cat: (1 if cat == privileged else 0) for cat in (cat_a, cat_b)}
    codes = {pid: mapping[value] for pid, value in raw.items()}
    return codes, AttributeCoding(mapping=mapping, counts=counts)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_cohort(cohort: Cohort, seed: int, by_participant: bool = False) -> SplitCohort:
    """Shuffle and split 75/25, deterministically for a given seed.

    With ``by_participant`` the 75/25 ratio applies to participants and all
    of a participant's windows travel together (window proportions are then
    only approximate).

    Raises:
        TooSmall: fewer than 4 windows.
    """
    n = len(cohort)
    if n < 4:
        raise TooSmall(f"need at least 4 windows to split, got {n}")
    rng = substream(seed, "split")
    if by_participant:
        participants = sorted({w.participant_id for w in cohort.windows})
        order = list(rng.permutation(len(participants)))
        n_train_p = _round_half_up(0.75 * len(participants))
        train_ids = {participants[i] for i in order[:n_train_p]}
        train_windows = [w for w in cohort.windows if w.participant_id in train_ids]
        test_windows = [w for w in cohort.windows if w.participant_id not in train_ids]
    else:
        order = rng.permutation(n)
        n_train = _round_half_up(0.75 * n)
        train_windows = [cohort.windows[i] for i in order[:n_train]]
        test_windows = [cohort.windows[i] for i in order[n_train:]]
    catalog = dict(cohort.attribute_catalog)
    return SplitCohort(
        train=Cohort(tuple(train_windows), catalog),
        test=Cohort(tuple(test_windows), catalog),
        seed=seed,
    )


def standardize(split: SplitCohort) -> SplitCohort:
    """Standardize features using train statistics only.

    Per feature, pooled over all time steps of all train windows: subtract
    the mean and divide by the population standard deviation, floored at
    1e-8 so constant features map to zero. Test windows are transformed
    with the train statistics.
    """
    if len(split.train) == 0:
        raise ValueError("train cohort is empty")
    train_stack = split.train.feature_tensor().reshape(-1, N_FEATURES)
    mean = train_stack.mean(axis=0)
    std = np.maximum(train_stack.std(axis=0), 1e-8)
    scaler = FeatureScaler(mean=mean, std=std)

    def transform(cohort: Cohort) -> Cohort:
        windows = tuple(replace(w, features=scaler.transform(w.features)) for w in cohort.windows)
        return Cohort(windows, dict(cohort.attribute_catalog))

    return SplitCohort(
        train=transform(split.train),
        test=transform(split.test),
        seed=split.seed,
        scaler=scaler,
    )


# Synthetic-cohort shape parameters. The label skew delta and the column
# shift sizes were calibrated so that, at bias_strength 0.8, a fully
# trained single-task model lands outside the [0.8, 1.2] fairness band
# while an attribute-blind model of moderate accuracy lands inside it.
SYNTH_GROUP_FRACTION = 0.6
SYNTH_LABEL_DELTA = 0.13
SYNTH_ANXIETY_SHIFT = 0.15
SYNTH_PROTECTED_SHIFT = 0.80
SYNTH_AR_COEFF = 0.5
SYNTH_PARTICIPANT_SIGMA = 0.15
SYNTH_RAW_CATEGORIES = ("maj", "min")


def generate_synthetic(n: int, bias_strength: float, seed: int, attribute: str = "group") -> Cohort:
    """Generate a biased synthetic cohort of ``n`` windows.

    Each window is an AR(1) Gaussian process per feature column plus a
    participant intercept. The anxiety label shifts the columns in
    ``ANXIETY_SIGNAL_COLUMNS``; the protected attribute shifts the columns
    in ``PROTECTED_SIGNAL_COLUMNS`` scaled by ``bias_strength`` and skews
    P(anxiety=1 | group) by ``bias_strength`` (exact per-group label
    proportions, so the dataset's disparate impact is deterministic up to
    rounding). At strength 0 the attribute is independent of both the
    label and the features.

    Raises:
        BadStrength: bias_strength outside [0, 1].
        ValueError: n < 40.
    """
    if not 0.0 <= bias_strength <= 1.0:
        raise BadStrength(f"bias_strength must be in [0, 1], got {bias_strength}")
    if n < 40:
        raise ValueError(f"need n >= 40, got {n}")
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

    # Exact per-group positive counts.
    labels = np.zeros(n, dtype=np.int64)
    for group in (0, 1):
        sign = 1.0 if group == 1 else -1.0
        rate = 0.5 + sign * SYNTH_LABEL_DELTA * bias_strength
        members = np.flatnonzero(window_groups == group)
        n_pos = _round_half_up(rate * len(members))
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
                protected={attribute: int(window_groups[i])},
            )
        )

    priv_cat, unpriv_cat = SYNTH_RAW_CATEGORIES
    coding = AttributeCoding(
        mapping={priv_cat: 1, unpriv_cat: 0},
        counts={priv_cat: n_priv, unpriv_cat: n_participants - n_priv},
    )
    return Cohort(tuple(windows), {attribute: coding})


# ---------------------------------------------------------------------------
# CSV / JSON interchange


WINDOWS_HEADER = ["sample_id", "participant_id", "step", *FEATURE_NAMES]


def write_windows_csv(path, sample_ids, participant_ids, features) -> None:
    """Windows CSV: sample_id, participant_id, step, then the 25 features.

    Takes what read_windows_csv returns: sample ids, participant ids and
    the (n, 24, 25) features.
    """
    write_csv(path, WINDOWS_HEADER, (
        f"{sample_id},{participant_id},{step},{','.join(map(repr, row))}"
        for sample_id, participant_id, window in zip(sample_ids, participant_ids, features)
        for step, row in enumerate(window.tolist())
    ))


def _rows_after_header(path, header):
    """The rows of ``read_csv(path)`` after a header that must equal ``header``."""
    rows = read_csv(path)
    if next(rows)[1] != header:
        rows.close()
        raise ValueError(f"{path}, line 1: expected the header {','.join(header)}")
    return rows


def read_windows_csv(path):
    """Windows CSV -> (sample ids, participant ids, (n, 24, 25) features).

    Parses row by row into per-sample arrays (samples in order of first
    row). Raises ValueError, naming the file and line, on a bad header or
    column count, a step outside [0, 24), a non-finite feature value, a
    repeated (sample, step) row, or a sample with missing steps.
    """
    by_sample = {}  # sample id -> [participant id, features, bitmask of steps seen]
    for line, row in _rows_after_header(path, WINDOWS_HEADER):
        sample_id = row[0]
        try:
            step = int(row[2])
            values = [float(v) for v in row[3:]]
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
        # a finite sum proves every value finite; an infinite one may be overflow
        if not math.isfinite(sum(values)):
            for name, text, value in zip(FEATURE_NAMES, row[3:], values):
                if not math.isfinite(value):
                    raise ValueError(f"{path}, line {line}: feature {name!r} is {text!r}, not a finite number")
        if not 0 <= step < WINDOW_STEPS:
            raise ValueError(f"{path}, line {line}: step {step} outside [0, {WINDOW_STEPS})")
        if sample_id not in by_sample:
            by_sample[sample_id] = [row[1], np.zeros((WINDOW_STEPS, N_FEATURES)), 0]
        entry = by_sample[sample_id]
        if entry[2] >> step & 1:
            raise ValueError(f"{path}, line {line}: repeats step {step} of sample {sample_id!r}")
        entry[1][step] = values
        entry[2] |= 1 << step
    for sample_id, (_, _, seen) in by_sample.items():
        if seen != (1 << WINDOW_STEPS) - 1:
            raise ValueError(f"{path}: sample {sample_id!r} is missing time steps")
    features = np.array([entry[1] for entry in by_sample.values()]).reshape(-1, WINDOW_STEPS, N_FEATURES)
    return list(by_sample), [entry[0] for entry in by_sample.values()], features


LABELS_HEADER = ["sample_id", "anxiety"]


def read_outcomes_csv(path, header, what) -> dict:
    """CSV of sample ids and 0/1 outcomes (labels or predictions) -> {sample id: outcome}.

    ``header`` names the columns; the integer is in the second, and
    ``what`` names it in errors. Raises ValueError, naming the file and
    line, on a bad header or column count, a value other than the
    integers 0 and 1, or a repeated sample; and naming the file when no
    row follows the header.
    """
    values = {}
    for line, (sample_id, text, *_) in _rows_after_header(path, header):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{path}, line {line}: {what} {text!r} is not an integer") from None
        if value not in (0, 1):
            raise ValueError(f"{path}, line {line}: {what} {value} is not 0 or 1")
        if sample_id in values:
            raise ValueError(f"{path}, line {line}: repeats sample {sample_id!r}")
        values[sample_id] = value
    if not values:
        raise ValueError(f"{path}: no {what}s after the header")
    return values


def write_labels_csv(path, cohort: Cohort) -> None:
    write_csv(path, LABELS_HEADER, (f"{w.sample_id},{w.anxiety}" for w in cohort.windows))


def _read_demographics_csv(path) -> dict:
    """Demographics CSV -> {attribute: {participant id: raw category}}.

    Raises ValueError, naming the file and line, on a header that is not
    participant_id followed by distinct attribute names, a wrong column
    count or a repeated participant; and naming the file when no
    participant row follows the header.
    """
    rows = read_csv(path)
    _, header = next(rows)
    if len(header) < 2 or header[0] != "participant_id" or len(set(header)) != len(header):
        rows.close()
        raise ValueError(f"{path}, line 1: expected the header participant_id,<attribute>,... with distinct names")
    raw_by_attr = {name: {} for name in header[1:]}
    participants = raw_by_attr[header[1]]  # every row fills every attribute
    for line, row in rows:
        if row[0] in participants:
            raise ValueError(f"{path}, line {line}: repeats participant {row[0]!r}")
        for name, value in zip(header[1:], row[1:]):
            raw_by_attr[name][row[0]] = value
    if not participants:
        raise ValueError(f"{path}: no participant rows after the header")
    return raw_by_attr


def write_demographics_csv(path, cohort: Cohort) -> None:
    """Demographics CSV: participant_id plus one raw-category column per attribute."""
    attrs = cohort.attribute_names()
    reverse = {
        name: {code: cat for cat, code in cohort.attribute_catalog[name].mapping.items()}
        for name in attrs
    }
    seen = {}
    for w in cohort.windows:
        if w.participant_id not in seen:
            seen[w.participant_id] = [reverse[name][w.protected[name]] for name in attrs]
    write_csv(path, ("participant_id",) + attrs, (",".join([pid, *seen[pid]]) for pid in sorted(seen)))


def write_catalog_json(path, cohort: Cohort) -> None:
    payload = {
        name: {"mapping": coding.mapping, "counts": coding.counts}
        for name, coding in cohort.attribute_catalog.items()
    }
    write_json(path, payload)


def load_cohort(windows_path, labels_path, demographics_path=None) -> Cohort:
    """Assemble a cohort from the interchange CSVs.

    Windows and labels are joined on sample_id; demographic raw categories,
    when provided, are encoded per attribute with the majority rule.
    """
    sample_ids, participant_ids, features = read_windows_csv(windows_path)
    labels = read_outcomes_csv(labels_path, LABELS_HEADER, "label")

    catalog = {}
    participant_codes = {}
    if demographics_path is not None:
        for name, raw in _read_demographics_csv(demographics_path).items():
            codes, coding = encode_protected(raw, name)
            catalog[name] = coding
            participant_codes[name] = codes

    windows = []
    for sample_id, participant_id, feats in zip(sample_ids, participant_ids, features):
        if sample_id not in labels:
            raise ValueError(f"{labels_path}: sample {sample_id!r} has no anxiety label")
        protected = {}
        for name, codes in participant_codes.items():
            if participant_id not in codes:
                raise ValueError(f"{demographics_path}: participant {participant_id!r} is missing")
            protected[name] = codes[participant_id]
        windows.append(
            LabeledWindow(
                sample_id=sample_id,
                participant_id=participant_id,
                features=feats,
                anxiety=labels[sample_id],
                protected=protected,
            )
        )
    return Cohort(tuple(windows), catalog)
