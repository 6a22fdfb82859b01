"""Frozen row-by-row ECG and NN-interval CSV readers, kept as a bit-identity oracle.

These are the ``hrv_features.read_ecg_csv`` and ``read_nni_csv`` bodies as
they were before the body parse moved to ``np.loadtxt``: one ``float()``
call per value. On every input both accept, the tests require the same
float64 bits and the same sample rate from the two, not a tolerance. Do
not edit the parsing here to follow a change in ``hrv_features``.
"""

import csv as _csv
from pathlib import Path

import numpy as np

from fairhrv.hrv_features import EcgSignal, NNIntervalSeries


def reference_read_ecg_csv(path) -> EcgSignal:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected header 't_seconds,voltage'")
        times, volts = [], []
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            volts.append(float(row[1]))
    times = np.asarray(times)
    if len(times) < 3:
        raise ValueError(f"{path}: too few samples")
    dt = np.diff(times)
    if np.max(np.abs(dt - np.median(dt))) > 0.01 * np.median(dt):
        raise ValueError(f"{path}: timestamps are not uniformly spaced")
    return EcgSignal(samples=np.asarray(volts), sample_rate=1.0 / float(np.median(dt)))


def reference_read_nni_csv(path) -> NNIntervalSeries:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 1:
            raise ValueError(f"{path}: expected header 'interval_ms'")
        intervals = [float(row[0]) for row in reader if row]
    return NNIntervalSeries(np.asarray(intervals))
