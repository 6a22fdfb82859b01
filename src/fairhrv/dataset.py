"""Cohort construction: labels, protected attributes, splits, synthesis.

A cohort is a set of labeled feature windows (24 time steps x 25 HRV
features) with binary anxiety labels, plus binary protected attributes
coded once per participant.
This module covers majority-rule protected-attribute encoding, seeded
75/25 splitting, train-statistics standardization, a synthetic
biased-cohort generator, and the CSV/JSON interchange formats.

The windows CSV is the largest interchange file, so its codec is the
fast one. The writer formats chunks of windows in forked processes, one
per usable CPU, and joins them in order. The reader reads the file under
the one rule of ``fileio.read_numeric_csv``, checks that its rows come in
the writer's layout, and groups nothing. The generator draws all of a
cohort's noise in one call. Each of the three gives the bytes or bits of
its one-at-a-time form.

Windows and attribute codings come only from the readers (``load_cohort``
over ``read_windows_csv``, ``read_outcomes_csv`` and ``encode_protected``)
and from ``generate_synthetic``, which check them: float64 24x25 features,
0/1 labels, and a privileged category that is the majority. The types
trust them and check nothing again.

Cohorts are immutable after construction and safe to share across threads.
"""

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes, check_csv_name, read_csv, read_numeric_csv, write_csv, write_json
from .hrv_features import FEATURE_NAMES
from .rng import substream

WINDOW_STEPS = 24
N_FEATURES = len(FEATURE_NAMES)

# Columns the synthetic generator ties to the protected attribute; the
# same columns the saliency comparison watches.
PROTECTED_SIGNAL_COLUMNS = ("sdsd", "nni_20", "pnni_20")
ANXIETY_SIGNAL_COLUMNS = ("mean_nni", "rmssd", "mean_hr", "lf", "hf", "csi")


class OutOfRange(ValueError):
    """A parameter outside its range: ``name`` names it and ``rule`` says what it must be."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} {rule}, got {value}")
        self.name, self.rule = name, rule


@dataclass(frozen=True)
class LabeledWindow:
    """One sample: a 24x25 feature matrix with its anxiety label."""

    sample_id: str
    participant_id: str
    features: np.ndarray
    anxiety: int


@dataclass(frozen=True)
class AttributeCoding:
    """Raw-category -> binary code mapping, raw-category counts, and participant id -> binary code."""

    mapping: dict
    counts: dict
    codes: dict

    def privileged_category(self) -> str:
        return next(cat for cat, code in self.mapping.items() if code == 1)


@dataclass(frozen=True)
class Cohort:
    windows: tuple
    attribute_catalog: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.windows)

    def feature_tensor(self) -> np.ndarray:
        """(n, 24, 25) array of all windows."""
        return np.stack([w.features for w in self.windows]) if self.windows else np.zeros((0, WINDOW_STEPS, N_FEATURES))

    def labels(self) -> np.ndarray:
        return np.array([w.anxiety for w in self.windows], dtype=np.int64)

    def protected_values(self, attribute: str) -> np.ndarray:
        """The code of each window's participant under ``attribute``, an attribute of the catalog."""
        codes = self.attribute_catalog[attribute].codes
        return np.array([codes[w.participant_id] for w in self.windows], dtype=np.int64)


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
    scaler: FeatureScaler = None


def encode_protected(raw, attribute_name: str):
    """Map a two-category attribute to {privileged: 1, unprivileged: 0}.

    The majority category becomes the privileged class. An exact tie is
    broken toward the lexicographically smaller category name; the equal
    counts in the coding show it.

    Returns:
        AttributeCoding: the category mapping and counts, and each
        participant's binary code.

    Raises:
        ValueError: naming the attribute, when it has one category or more
            than two.
    """
    counts = {}
    for value in raw.values():
        counts[value] = counts.get(value, 0) + 1
    if len(counts) < 2:
        raise ValueError(f"{attribute_name!r} has a single category: {sorted(counts)}")
    if len(counts) > 2:
        raise ValueError(f"{attribute_name!r} has {len(counts)} categories; coarsen to two first")
    (cat_a, n_a), (cat_b, n_b) = sorted(counts.items())
    privileged = cat_a if n_a >= n_b else cat_b
    mapping = {cat: (1 if cat == privileged else 0) for cat in (cat_a, cat_b)}
    return AttributeCoding(mapping=mapping, counts=counts, codes={pid: mapping[value] for pid, value in raw.items()})


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_cohort(cohort: Cohort, seed: int, by_participant: bool = False) -> SplitCohort:
    """Shuffle and split 75/25, deterministically for a given seed.

    With ``by_participant`` all of a participant's windows travel together,
    and participants are split 75/25 within each stratum of equal protected
    codes and majority anxiety label (a tie counts as 0). A stratum of two
    or more participants puts at least one in each part; a lone participant
    goes to train. Window proportions are then only approximate.

    Raises:
        ValueError: fewer than 4 windows.
    """
    n = len(cohort)
    if n < 4:
        raise ValueError(f"need at least 4 windows to split, got {n}")
    rng = substream(seed, "split")
    if by_participant:
        windows_of = {}
        for w in cohort.windows:
            windows_of.setdefault(w.participant_id, []).append(w)
        strata = {}
        for pid, ws in sorted(windows_of.items()):
            codes = tuple(sorted((name, coding.codes[pid]) for name, coding in cohort.attribute_catalog.items()))
            strata.setdefault((codes, 2 * sum(w.anxiety for w in ws) > len(ws)), []).append(pid)
        train_ids = set()
        for _, members in sorted(strata.items()):
            n_train_p = min(_round_half_up(0.75 * len(members)), max(1, len(members) - 1))
            train_ids.update(members[i] for i in rng.permutation(len(members))[:n_train_p])
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
    )


def standardize(split: SplitCohort) -> SplitCohort:
    """Standardize features using train statistics only.

    Per feature, pooled over all time steps of all train windows: subtract
    the mean and divide by the population standard deviation, floored at
    1e-8 so constant features map to zero. Test windows are transformed
    with the train statistics.
    """
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

    All the noise comes from one ``standard_normal((n, 24, 25))`` draw,
    which takes the stream's values in the order a per-window loop of
    start values and innovations would, and the AR(1) recursion runs
    over the 24 steps for all windows at once, with the same arithmetic.

    The attribute is coded by ``encode_protected``, as a loaded cohort's
    is: "maj", ceil(0.6 n) of n >= 10 participants, is the privileged one.

    Raises:
        OutOfRange: bias_strength outside [0, 1], n < 40, or seed outside
            [0, 2**64), the range of a checkpoint header's seed.
    """
    if not 0.0 <= bias_strength <= 1.0:
        raise OutOfRange("bias_strength", "must be in [0, 1]", bias_strength)
    if n < 40:
        raise OutOfRange("n", "must be at least 40", n)
    if not 0 <= seed < 2**64:
        raise OutOfRange("seed", "must be in [0, 2**64)", seed)
    rng = substream(seed, "synth")

    n_participants = max(10, n // 20)
    base, extra = divmod(n, n_participants)
    windows_per_participant = [base + (1 if i < extra else 0) for i in range(n_participants)]

    n_priv = int(math.ceil(SYNTH_GROUP_FRACTION * n_participants))
    group_of_participant = np.zeros(n_participants, dtype=np.int64)
    group_of_participant[rng.permutation(n_participants)[:n_priv]] = 1

    participant_of_window = np.repeat(np.arange(n_participants), windows_per_participant)
    window_groups = group_of_participant[participant_of_window]

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

    rho = SYNTH_AR_COEFF
    feats = rng.standard_normal((n, WINDOW_STEPS, N_FEATURES))
    feats[:, 1:] *= math.sqrt(1.0 - rho**2)
    for t in range(1, WINDOW_STEPS):
        feats[:, t] += rho * feats[:, t - 1]
    feats += intercepts[participant_of_window, None, :]
    feats[:, :, anx_cols] += (SYNTH_ANXIETY_SHIFT * (2 * labels - 1))[:, None, None]
    feats[:, :, prot_cols] += (SYNTH_PROTECTED_SHIFT * bias_strength * (2 * window_groups - 1))[:, None, None]
    windows = tuple(LabeledWindow(f"s{i:06d}", f"p{participant_of_window[i]:04d}", feats[i], int(labels[i]))
                    for i in range(n))

    categories = {f"p{k:04d}": SYNTH_RAW_CATEGORIES[1 - group] for k, group in enumerate(group_of_participant)}
    return Cohort(windows, {attribute: encode_protected(categories, attribute)})


# ---------------------------------------------------------------------------
# CSV / JSON interchange


WINDOWS_HEADER = ["sample_id", "participant_id", "step", *FEATURE_NAMES]
# Windows per chunk of write_windows_csv. Small, as a forked worker starts
# with this process's resident memory and adds one chunk's text to it.
WRITE_CHUNK_WINDOWS = 64


def _format_windows(chunk) -> bytes:
    """The UTF-8 windows-CSV rows, each ending in a newline, of (sample ids, participant ids, features)."""
    sample_ids, participant_ids, features = chunk
    return "".join(
        f"{sample_id},{participant_id},{step},{','.join(map(repr, row))}\n"
        for sample_id, participant_id, window in zip(sample_ids, participant_ids, features)
        for step, row in enumerate(window.tolist())
    ).encode("utf-8")


def _format_windows_to(names, chunks) -> None:
    """Write the ``_format_windows`` bytes of each chunk to the file of the same position in ``names``."""
    for name, chunk in zip(names, chunks):
        Path(name).write_bytes(_format_windows(chunk))


def write_windows_csv(path, sample_ids, participant_ids, features) -> None:
    """Windows CSV: sample_id, participant_id, step, then the 25 features.

    Takes what read_windows_csv returns: sample ids, participant ids and
    the (n, 24, 25) features. Each value is written as its ``repr``, the
    shortest text that reads back to the same float64.

    The windows are formatted in chunks of ``WRITE_CHUNK_WINDOWS``. Each
    CPU this process may run on gets a forked worker (at most one per
    chunk), which formats every so-many-th chunk into a file of its own;
    this process then reads the files back in chunk order, so the bytes
    do not depend on the number of workers. With one CPU, one chunk, or
    no ``fork``, the chunks are formatted in this process. Every worker
    has exited before the file is written.

    Raises:
        OSError: a worker failed; it has printed its own traceback.
    """
    chunks = [
        (sample_ids[i:i + WRITE_CHUNK_WINDOWS], participant_ids[i:i + WRITE_CHUNK_WINDOWS],
         features[i:i + WRITE_CHUNK_WINDOWS])
        for i in range(0, len(features), WRITE_CHUNK_WINDOWS)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(chunks)) if hasattr(os, "fork") else 1
    # one buffer that grows chunk by chunk, so the file is never held twice
    data = bytearray(",".join(WINDOWS_HEADER).encode("utf-8") + b"\n")
    if workers > 1:
        # imported here, as they would add about 10 ms to every command's start
        import multiprocessing
        import tempfile

        # Forked processes that inherit their chunks and hand back files, not a
        # pool: a pool pickles and receives on helper threads, whose malloc
        # arenas do not reuse the memory this process has freed (mitigate's
        # peak RSS went 85 -> 94.5 MB with one, n = 2000, seed 2).
        context = multiprocessing.get_context("fork")
        with tempfile.TemporaryDirectory() as tmp:
            names = [os.path.join(tmp, str(k)) for k in range(len(chunks))]
            procs = [context.Process(target=_format_windows_to, args=(names[k::workers], chunks[k::workers]))
                     for k in range(workers)]
            try:
                for proc in procs:
                    proc.start()
            finally:  # no worker outlives the call, even when a fork fails
                for proc in procs:
                    if proc.pid is not None:
                        proc.join()
            failed = [proc.exitcode for proc in procs if proc.exitcode]
            if failed:
                raise OSError(f"{path}: {len(failed)} of {workers} formatting workers failed")
            for name in names:
                data += Path(name).read_bytes()
    else:
        for chunk in chunks:
            data += _format_windows(chunk)
    atomic_write_bytes(path, data)


def _rows_after_header(path, header):
    """The rows of ``read_csv(path)`` after a header that must equal ``header``."""
    rows = read_csv(path)
    if next(rows)[1] != header:
        rows.close()
        raise ValueError(f"{path}, line 1: expected the header {','.join(header)}")
    return rows


def read_windows_csv(path):
    """Windows CSV -> (sample ids, participant ids, (n, 24, 25) features).

    The file is read under the one rule of ``fileio.read_numeric_csv``,
    with the header WINDOWS_HEADER: the ids are text, the step an integer
    and every feature value a finite number. The rows are checked against
    the layout ``write_windows_csv`` writes, not grouped into it: row r is
    step r mod 24 of sample r div 24 and names the participant of that
    sample's first row, so the features are a view of the rows. No id may
    hold a comma, quote, CR or LF (``fileio.check_csv_name``), as the files
    that the model commands write them into could not read them back.

    Raises ValueError: naming the file and the first bad line, on a bad
    header, column count, step or feature value; failing those, naming the
    file and the id, on an id the rule above refuses; naming the file and
    the line of the first row out of place or naming another participant;
    naming the file and the sample, on a last sample cut short; and naming
    the file and the offset of the first bad byte, for a file that is not
    UTF-8 text.
    """
    samples, participants = {}, {}  # id -> its number, in order of first row
    data = read_numeric_csv(path, WINDOWS_HEADER, exact_header=True, converters=(
        lambda text: samples.setdefault(text, len(samples)),
        lambda text: participants.setdefault(text, len(participants)),
        int,  # as strict as int(): "1.0" is not a step
    ))
    for what, ids in (("sample", samples), ("participant", participants)):
        for name in ids:  # each distinct id once, not each row
            check_csv_name(f"{path}: {what}", name)
    sample_ids, participant_ids = list(samples), list(participants)
    rows = np.arange(len(data))
    first = rows - rows % WINDOW_STEPS  # each row's sample's first row, where the layout holds
    in_place = (data[:, 0] == rows // WINDOW_STEPS) & (data[:, 2] == rows % WINDOW_STEPS)
    bad = np.flatnonzero(~in_place | (data[:, 1] != data[first, 1]))
    if len(bad):
        row = bad[0]
        line, fields = next(itertools.islice(read_csv(path), row + 1, None))  # the line on which the row ends
        where, sample = f"{path}, line {line}", sample_ids[int(data[row, 0])]
        if in_place[row]:
            raise ValueError(f"{where}: sample {sample!r} names participant {participant_ids[int(data[row, 1])]!r}, "
                             f"but its first row names {participant_ids[int(data[first[row], 1])]!r}")
        want = f"sample {sample_ids[row // WINDOW_STEPS]!r}" if row % WINDOW_STEPS else "a new sample"
        raise ValueError(f"{where}: step {fields[2]} of sample {sample!r} where step {row % WINDOW_STEPS} "
                         f"of {want} belongs; each sample's {WINDOW_STEPS} rows come together, in step order")
    if len(data) % WINDOW_STEPS:
        raise ValueError(f"{path}: the last sample, {sample_ids[-1]!r}, has {len(data) % WINDOW_STEPS} "
                         f"of its {WINDOW_STEPS} rows")
    return (sample_ids, [participant_ids[int(k)] for k in data[::WINDOW_STEPS, 1]],
            data[:, 3:].reshape(-1, WINDOW_STEPS, N_FEATURES))


LABELS_HEADER = ["sample_id", "anxiety"]
PREDICTIONS_HEADER = ["sample_id", "prediction", "probability"]


def read_outcomes_csv(path, header, what) -> dict:
    """CSV of sample ids and 0/1 outcomes (labels or predictions) -> {sample id: outcome}.

    ``header`` names the columns; the integer is in the second, and
    ``what`` names it in errors. Each further column, such as the
    predictions' probability, must hold a number in [0, 1]. Raises
    ValueError, naming the file and line, on a bad header or column
    count, a value other than the integers 0 and 1, a further value
    outside [0, 1] or not a finite number, or a repeated sample; and
    naming the file when no row follows the header.
    """
    values = {}
    for line, (sample_id, text, *fractions) in _rows_after_header(path, header):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{path}, line {line}: {what} {text!r} is not an integer") from None
        if value not in (0, 1):
            raise ValueError(f"{path}, line {line}: {what} {value} is not 0 or 1")
        for name, fraction in zip(header[2:], fractions):
            try:
                in_range = 0.0 <= float(fraction) <= 1.0  # False for nan
            except ValueError:
                in_range = False
            if not in_range:
                raise ValueError(f"{path}, line {line}: {name} {fraction!r} is not a finite number in [0, 1]")
        if sample_id in values:
            raise ValueError(f"{path}, line {line}: repeats sample {sample_id!r}")
        values[sample_id] = value
    if not values:
        raise ValueError(f"{path}: no {what}s after the header")
    return values


def write_labels_csv(path, cohort: Cohort) -> None:
    write_csv(path, LABELS_HEADER, (f"{w.sample_id},{w.anxiety}" for w in cohort.windows))


def write_predictions_csv(path, sample_ids, preds, probs) -> None:
    write_csv(path, PREDICTIONS_HEADER, (
        f"{sid},{int(pred)},{repr(float(prob))}" for sid, pred, prob in zip(sample_ids, preds, probs)
    ))


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
    """Demographics CSV: participant_id, then each attribute's raw category of every participant with a window."""
    columns = [({code: cat for cat, code in c.mapping.items()}, c.codes) for c in cohort.attribute_catalog.values()]
    write_csv(path, ("participant_id", *cohort.attribute_catalog), (
        ",".join([pid, *(categories[codes[pid]] for categories, codes in columns)])
        for pid in sorted({w.participant_id for w in cohort.windows})
    ))


def write_catalog_json(path, cohort: Cohort) -> None:
    payload = {
        name: {"mapping": coding.mapping, "counts": coding.counts}
        for name, coding in cohort.attribute_catalog.items()
    }
    write_json(path, payload)


def load_cohort(windows_path, labels_path, demographics_path=None, protected=None) -> Cohort:
    """Assemble a cohort from the interchange CSVs.

    Windows and labels are joined on sample_id. The demographics file,
    when given, must list every window's participant; only its
    ``protected`` column is encoded with the majority rule, and none
    without one, so the other columns may hold any number of categories.
    ``protected`` needs the demographics file, as the CLI requires --demo
    with --protected.

    Raises:
        ValueError: naming the file, for a windows file without rows, a
            sample without a label, a participant missing from the
            demographics, no ``protected`` column, or a ``protected``
            column without exactly two categories.
    """
    sample_ids, participant_ids, features = read_windows_csv(windows_path)
    if not sample_ids:
        raise ValueError(f"{windows_path}: no windows after the header")
    labels = read_outcomes_csv(labels_path, LABELS_HEADER, "label")

    catalog = {}
    participants = None
    if demographics_path is not None:
        raw_by_attr = _read_demographics_csv(demographics_path)
        participants = next(iter(raw_by_attr.values()))  # every row fills every attribute
        if protected is not None:
            if protected not in raw_by_attr:
                raise ValueError(f"{demographics_path} has no attribute column {protected!r}; "
                                 f"its attribute columns are {', '.join(raw_by_attr)}")
            try:
                catalog[protected] = encode_protected(raw_by_attr[protected], protected)
            except ValueError as exc:
                raise ValueError(f"{demographics_path}: {exc}") from None

    windows = []
    for sample_id, participant_id, feats in zip(sample_ids, participant_ids, features):
        if sample_id not in labels:
            raise ValueError(f"{labels_path}: sample {sample_id!r} has no anxiety label")
        if participants is not None and participant_id not in participants:
            raise ValueError(f"{demographics_path}: participant {participant_id!r} is missing")
        windows.append(LabeledWindow(sample_id, participant_id, feats, labels[sample_id]))
    return Cohort(tuple(windows), catalog)
