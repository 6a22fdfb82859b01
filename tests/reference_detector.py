"""Frozen ``np.convolve`` R-peak detector, kept as an oracle for ``hrv_features.detect_r_peaks``.

This is the detector as it was before its moving averages became running
sums over the mean-removed trace and its acceptance loop skipped the low
energy maxima: zero-padded "same" convolutions, one Python pass over every
local maximum of the energy, one slice per accepted beat for refinement.
Its envelope differs from the new one in the last bits and, within half a
window of either end, by the zero padding, so the tests compare the
intervals, not the envelope. Do not edit it to follow a change in
``hrv_features``.
"""

import numpy as np

from fairhrv.hrv_features import MAX_NN_MS, MIN_NN_MS, NNIntervalSeries


def _moving_average(x, width):
    width = max(1, int(width))
    kernel = np.full(width, 1.0 / width)
    return np.convolve(x, kernel, mode="same")


def reference_detect_r_peaks(signal) -> NNIntervalSeries:
    x = signal.samples
    fs = float(signal.sample_rate)

    band = _moving_average(x, round(fs / 15.0)) - _moving_average(x, round(fs / 5.0))
    deriv = np.gradient(band)
    energy = _moving_average(deriv * deriv, round(0.150 * fs))

    refractory = max(1, round(0.250 * fs))
    peak_mask = np.zeros(len(energy), dtype=bool)
    if len(energy) > 2:
        peak_mask[1:-1] = (energy[1:-1] > energy[:-2]) & (energy[1:-1] >= energy[2:])
    candidates = np.flatnonzero(peak_mask)

    init_region = energy[: max(1, int(2 * fs))]
    running_avg = float(np.max(init_region))
    if running_avg <= 0.0:
        raise ValueError("signal has no energy peaks above threshold")

    accepted = []
    accepted_energy = 0.0
    for idx, height in zip(candidates.tolist(), energy[candidates].tolist()):
        if accepted and idx - accepted[-1] < refractory:
            if height > accepted_energy:
                accepted[-1] = idx
                accepted_energy = height
            continue
        if height > 0.5 * running_avg:
            accepted.append(idx)
            accepted_energy = height
            running_avg = 0.875 * running_avg + 0.125 * height

    half_window = max(1, round(0.100 * fs))
    n_samples = len(x)
    refined = []
    for idx in accepted:
        lo = max(0, idx - half_window)
        hi = min(n_samples, idx + half_window + 1)
        refined.append(lo + int(x[lo:hi].argmax()))
    refined = sorted(set(refined))

    peaks = []
    for idx in refined:
        if peaks and idx - peaks[-1] < refractory:
            continue
        peaks.append(idx)

    if len(peaks) < 2:
        raise ValueError(f"found {len(peaks)} peak(s); need at least 2")

    intervals = np.diff(np.asarray(peaks, dtype=np.float64)) / fs * 1000.0
    intervals = intervals[(intervals >= MIN_NN_MS) & (intervals <= MAX_NN_MS)]
    if len(intervals) < 1:
        raise ValueError("all detected intervals rejected as artifacts")
    return NNIntervalSeries(intervals)
