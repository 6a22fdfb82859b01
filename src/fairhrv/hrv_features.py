"""Heart-rate-variability feature extraction.

Computes the 25 features used throughout this package (16 time-domain,
7 frequency-domain, and the two Poincare indices csi/cvi) from a series
of normal-to-normal (NN) heartbeat intervals, plus a minimal R-peak
detector for raw single-lead ECG.

The layers pass plain float64 arrays, checked once at the readers (finite
values, positive intervals, 2 s of ECG at a finite rate): ``read_ecg_csv``
gives (samples, sample_rate), ``detect_r_peaks`` and ``read_nni_csv`` the
intervals in ms that ``extract_features`` takes.

All operations are pure functions of their inputs and safe to call from
multiple threads. Everything is numpy: the spline and the Welch PSD
behind the frequency-domain features are written out here rather than
taken from scipy, whose import would cost more than the extraction.
"""

from pathlib import Path
import math

import numpy as np

from .fileio import read_numeric_csv, write_csv

# Column order used everywhere a feature matrix or CSV appears.
FEATURE_NAMES = (
    # time domain
    "mean_nni", "sdnn", "sdsd", "nni_50", "pnni_50", "nni_20", "pnni_20",
    "rmssd", "median_nni", "range_nni", "cvsd", "cvnni",
    "mean_hr", "max_hr", "min_hr", "std_hr",
    # frequency domain
    "lf", "hf", "lf_hf_ratio", "lfnu", "hfnu", "total_power", "vlf",
    # Poincare
    "csi", "cvi",
)

# Frequency bands in Hz, half-open so band powers add exactly.
VLF_BAND = (0.003, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)

RESAMPLE_HZ = 4.0
WELCH_SEGMENT = 256

# Physiologically plausible NN interval range; intervals outside are
# treated as detection artifacts and dropped.
MIN_NN_MS = 250.0
MAX_NN_MS = 3000.0

# Samples of the detector's band-pass computed at once; the block holds
# the windows that straddle it, so any size gives the same bits.
BAND_BLOCK_SAMPLES = 65536


def _window_means(sums: np.ndarray, width: int, lo: int = 0, hi: int = None) -> np.ndarray:
    """Moving average, entries [lo, hi), of the series of n values whose running sums are the n + 1 ``sums``.

    Entry i is the mean over [i - width//2, i + (width+1)//2), the window
    np.convolve's "same" mode centers on i. A window that either end of the
    series cuts short is divided by the samples it holds, not padded with
    zeros. Only the sums the windows of [lo, hi) span are read, and each
    entry has the same bits whatever the range. O(hi - lo) for any width.
    """
    n = len(sums) - 1
    hi = n if hi is None else hi
    width = max(1, int(width))
    before, after = width // 2, (width + 1) // 2
    start, end = max(0, lo - before), min(n, hi + after)
    sums, n = sums[start : end + 1], end - start
    first = min(before, n)
    stop = max(first, n - after + 1)  # the windows of entries [first, stop) lie inside the series
    means = np.empty(n)
    np.subtract(sums[width : width + stop - first], sums[: stop - first], out=means[first:stop])
    means[first:stop] /= width
    edge = np.r_[0:first, stop:n]
    right, left = np.minimum(edge + after, n), np.maximum(edge - before, 0)
    means[edge] = (sums[right] - sums[left]) / (right - left)
    return means[lo - start : hi - start]


def _accept_beats(candidates: np.ndarray, heights: np.ndarray, running_avg: float, refractory: int):
    """The adaptive threshold over energy maxima: the accepted indices.

    A maximum within ``refractory`` samples of the last accepted beat
    replaces it when taller; any other is accepted above 0.5x the running
    average of accepted heights.
    """
    # Python ints and floats from tolist(): numpy scalars make this loop twice as slow
    accepted = []
    last = -refractory  # accepted[-1], placed so that the first maximum is past its refractory period
    accepted_energy = 0.0  # energy at accepted[-1]
    threshold = 0.5 * running_avg
    for idx, height in zip(candidates.tolist(), heights.tolist()):
        if idx - last < refractory:
            # Within refractory period: keep whichever bump is taller.
            if height > accepted_energy:
                accepted[-1] = last = idx
                accepted_energy = height
        elif height > threshold:
            accepted.append(idx)
            last = idx
            accepted_energy = height
            running_avg = 0.875 * running_avg + 0.125 * height
            threshold = 0.5 * running_avg
    return accepted


@np.errstate(over="ignore", invalid="ignore")  # a trace too large to square is refused below, in one line
def detect_r_peaks(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    """Detect R peaks in an ECG trace; returns its NN intervals in milliseconds.

    Pan-Tompkins style chain: band-pass approximated by a difference of
    moving averages (~5-15 Hz), central derivative, squaring, 150 ms
    moving-window integration, then an adaptive threshold at 0.5x the
    running peak average with a 250 ms refractory period. Peak locations
    are refined to the raw-signal maximum within +/-100 ms. Intervals
    outside [250, 3000] ms are dropped as artifacts.

    Each moving average is a running sum (``_window_means``): O(n) where
    a convolution is O(n * width). The band-pass sums the mean-removed
    trace, so a DC offset cancels and a constant trace gives no energy,
    and a window cut short by either end is the mean of the samples it
    holds, so the edges carry no step from zero padding. Against the
    zero-padded np.convolve filters this detector once used, the energy
    envelope moves in its last bits (a difference of running sums rounds
    otherwise than a dot product), and by more only within half a window
    of either end or under a DC offset.

    Raises:
        ValueError: fewer than two usable peaks, no interval in the
            plausible range, or voltages too large to square in float64,
            saying which.
    """
    x, fs = samples, float(sample_rate)
    n = len(x)

    # one running sum of the mean-removed trace serves both averages of the band-pass
    sums = np.empty(n + 1)
    sums[0] = 0.0
    np.subtract(x, np.mean(x), out=sums[1:])
    np.cumsum(sums[1:], out=sums[1:])
    band = _window_means(sums, round(fs / 15.0))
    wide = round(fs / 5.0)
    for lo in range(0, n, BAND_BLOCK_SAMPLES):  # the wide average a block at a time: no third full-size buffer
        band[lo : lo + BAND_BLOCK_SAMPLES] -= _window_means(sums, wide, lo, min(n, lo + BAND_BLOCK_SAMPLES))
    # np.gradient's central derivative, squared and summed in the same buffer
    deriv = sums[1:]
    np.subtract(band[2:], band[:-2], out=deriv[1:-1])
    deriv[1:-1] *= 0.5
    deriv[0] = band[1] - band[0]
    deriv[-1] = band[-1] - band[-2]
    del band
    np.square(deriv, out=deriv)
    np.cumsum(deriv, out=deriv)
    if not np.isfinite(deriv[-1]):  # a sum of squares is finite only if every square is
        raise ValueError("ECG voltages too large: the squared slope of the filtered trace overflows float64")
    energy = _window_means(sums, round(0.150 * fs))
    del sums, deriv

    refractory = max(1, round(0.250 * fs))
    candidates = np.flatnonzero((energy[1:-1] > energy[:-2]) & (energy[1:-1] >= energy[2:])) + 1

    running_avg = float(np.max(energy[: max(1, int(2 * fs))]))
    if running_avg <= 0.0:
        raise ValueError("signal has no energy peaks above threshold")
    accepted = _accept_beats(candidates, energy[candidates], running_avg, refractory)

    # refine to the raw maximum within +/-100 ms: one argmax over a window per beat
    half_window = max(1, round(0.100 * fs))
    beats = np.asarray(accepted, dtype=np.intp)
    width = min(2 * half_window + 1, n)
    starts = np.clip(beats - half_window, 0, n - width)
    refined = starts + np.lib.stride_tricks.sliding_window_view(x, width)[starts].argmax(axis=1)
    for row in np.flatnonzero(starts != beats - half_window):  # within 100 ms of either end
        lo = max(0, int(beats[row]) - half_window)
        refined[row] = lo + int(x[lo : int(beats[row]) + half_window + 1].argmax())

    # Re-apply the refractory rule after refinement in case two integrator
    # bumps collapsed onto the same raw maximum neighborhood.
    peaks = []
    for idx in np.unique(refined).tolist():
        if peaks and idx - peaks[-1] < refractory:
            continue
        peaks.append(idx)

    if len(peaks) < 2:
        raise ValueError(f"found {len(peaks)} peak(s); need at least 2")

    intervals = in_nn_range(np.diff(np.asarray(peaks, dtype=np.float64)) / fs * 1000.0)
    if len(intervals) < 1:
        raise ValueError("all detected intervals rejected as artifacts")
    return intervals


def in_nn_range(intervals: np.ndarray) -> np.ndarray:
    """The intervals in [MIN_NN_MS, MAX_NN_MS], in order; the others are artifacts."""
    return intervals[(intervals >= MIN_NN_MS) & (intervals <= MAX_NN_MS)]


def _notaknot_spline(t: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (t, y), evaluated at xq in [t[0], t[-1]].

    Needs at least 4 strictly increasing knots. The slopes at the knots
    solve the tridiagonal system of first-derivative continuity, closed by
    a continuous third derivative across t[1] and t[-2] (the system
    scipy.interpolate.CubicSpline solves). Gaussian elimination without
    pivoting is stable on it: the interior rows are diagonally dominant,
    and eliminating the first row leaves the second a pivot of
    dt[0] + dt[1] > 0. The sweeps are O(n), so a long segment costs no
    n x n solve. Each piece is evaluated as a cubic in powers of xq - t[k].
    """
    dt = np.diff(t)
    slope = np.diff(y) / dt
    lower = np.empty(len(t))
    diag = np.empty(len(t))
    upper = np.empty(len(t))
    rhs = np.empty(len(t))
    lower[1:-1] = dt[1:]
    diag[1:-1] = 2.0 * (dt[:-1] + dt[1:])
    upper[1:-1] = dt[:-1]
    rhs[1:-1] = 3.0 * (dt[1:] * slope[:-1] + dt[:-1] * slope[1:])
    span = t[2] - t[0]
    diag[0] = dt[1]
    upper[0] = span
    rhs[0] = ((dt[0] + 2.0 * span) * dt[1] * slope[0] + dt[0] ** 2 * slope[1]) / span
    span = t[-1] - t[-3]
    lower[-1] = span
    diag[-1] = dt[-2]
    rhs[-1] = (dt[-1] ** 2 * slope[-2] + (2.0 * span + dt[-1]) * dt[-2] * slope[-1]) / span

    # Thomas algorithm on Python floats: a numpy scalar per step is slower
    lo, di, up, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, len(r)):
        w = lo[i] / di[i - 1]
        di[i] -= w * up[i - 1]
        r[i] -= w * r[i - 1]
    r[-1] /= di[-1]
    for i in range(len(r) - 2, -1, -1):
        r[i] = (r[i] - up[i] * r[i + 1]) / di[i]
    s = np.array(r)

    excess = (s[:-1] + s[1:] - 2.0 * slope) / dt
    cubic = excess / dt
    quadratic = (slope - s[:-1]) / dt - excess
    k = np.clip(np.searchsorted(t, xq, side="right") - 1, 0, len(t) - 2)
    u = xq - t[k]
    return ((cubic[k] * u + quadratic[k]) * u + s[k]) * u + y[k]


def _welch(x: np.ndarray, fs: float, nperseg: int):
    """Welch PSD of ``x``: (freqs, one-sided density).

    Periodic Hann window of ``nperseg`` points, 50% overlap, no detrend,
    density scaling, mean over the segments (scipy.signal.welch with
    those settings).
    """
    step = nperseg - nperseg // 2
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi / nperseg * np.arange(nperseg))
    spectra = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step] * window)
    psd = np.mean(spectra.real**2 + spectra.imag**2, axis=0) / (fs * np.sum(window * window))
    # one-sided: double every bin but DC and, for even nperseg, Nyquist
    psd[1 : (nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _psd_of_interpolated(nni: np.ndarray):
    """Resample the NN series to a uniform grid and return (freqs, psd).

    Cubic-spline interpolation (not-a-knot ends) onto a 4 Hz grid; falls
    back to linear interpolation when there are fewer than 4 points. The
    gridded series is mean-subtracted before a Welch PSD (periodic Hann,
    256-point segments or the whole series if shorter, 50% overlap, no
    per-segment detrend).
    """
    t = np.cumsum(nni) / 1000.0
    step = 1.0 / RESAMPLE_HZ
    grid = np.arange(t[0], t[-1], step)
    if len(grid) < 2:
        return None, None
    if len(nni) >= 4:
        resampled = _notaknot_spline(t, nni, grid)
    else:
        resampled = np.interp(grid, t, nni)
    centered = resampled - np.mean(resampled)
    return _welch(centered, RESAMPLE_HZ, min(WELCH_SEGMENT, len(centered)))


def _band_power(freqs: np.ndarray, psd: np.ndarray, band) -> float:
    """Rectangular-rule power in [band_lo, band_hi); bands add exactly."""
    df = freqs[1] - freqs[0]
    mask = (freqs >= band[0]) & (freqs < band[1])
    return float(np.sum(psd[mask]) * df)


def extract_features(intervals: np.ndarray) -> np.ndarray:
    """The 25 HRV features of one NN interval series in ms, a (25,) float64 row in ``FEATURE_NAMES`` order.

    Time-domain conventions: sdnn and sdsd are sample standard deviations
    (divisor n-1); nni_50/nni_20 count successive differences strictly
    greater than 50/20 ms in magnitude; pnni_x = 100 * nni_x / (n-1);
    the heart-rate statistics are taken over the instantaneous rate
    60000/nni per interval, with std_hr the population standard deviation.

    Band powers are 0 for a series too short to resample to two points at 4 Hz,
    and csi and/or cvi are 0 where the Poincare ellipse collapses. The series
    holds at least 2 intervals, as ``extract`` skips shorter segments.
    """
    x, n = intervals, len(intervals)

    diffs = np.diff(x)
    mean_nni = float(np.mean(x))
    sdnn = float(np.std(x, ddof=1))
    sdsd = float(np.std(diffs, ddof=1)) if len(diffs) >= 2 else 0.0
    abs_diffs = np.abs(diffs)
    nni_50 = float(np.sum(abs_diffs > 50.0))
    nni_20 = float(np.sum(abs_diffs > 20.0))
    pnni_50 = 100.0 * nni_50 / (n - 1)
    pnni_20 = 100.0 * nni_20 / (n - 1)
    rmssd = float(np.sqrt(np.mean(diffs**2)))
    median_nni = float(np.median(x))
    range_nni = float(np.max(x) - np.min(x))
    cvsd = rmssd / mean_nni
    cvnni = sdnn / mean_nni

    hr = 60000.0 / x
    mean_hr = float(np.mean(hr))
    max_hr = float(np.max(hr))
    min_hr = float(np.min(hr))
    std_hr = float(np.std(hr))

    freqs, psd = _psd_of_interpolated(x)
    if freqs is None:
        vlf = lf = hf = 0.0
    else:
        vlf = _band_power(freqs, psd, VLF_BAND)
        lf = _band_power(freqs, psd, LF_BAND)
        hf = _band_power(freqs, psd, HF_BAND)
    total_power = vlf + lf + hf
    if lf + hf > 0:
        lfnu = 100.0 * lf / (lf + hf)
        hfnu = 100.0 * hf / (lf + hf)
    else:
        lfnu = hfnu = 0.0
    lf_hf_ratio = lf / hf if hf > 0 else 0.0

    # Lorenz-plot descriptors. SD2^2 can go slightly negative for strongly
    # alternating series because sdnn and sdsd use different divisors.
    sd1 = sdsd / np.sqrt(2.0)
    sd2 = float(np.sqrt(max(0.0, 2.0 * sdnn**2 - sdsd**2 / 2.0)))
    longitudinal = 4.0 * sd2
    transverse = 4.0 * sd1
    csi = longitudinal / transverse if transverse > 0 else 0.0
    cvi = float(np.log10(longitudinal * transverse)) if longitudinal * transverse > 0 else 0.0

    return np.array([
        mean_nni, sdnn, sdsd, nni_50, pnni_50, nni_20, pnni_20,
        rmssd, median_nni, range_nni, cvsd, cvnni,
        mean_hr, max_hr, min_hr, std_hr,
        lf, hf, lf_hf_ratio, lfnu, hfnu, total_power, vlf,
        csi, cvi,
    ], dtype=np.float64)


def read_ecg_csv(path) -> tuple:
    """(samples, sample_rate) of the ECG trace in a headed CSV whose first two columns are t_seconds, voltage.

    The file is read under the one rule of ``fileio.read_numeric_csv``:
    every row is as wide as the header, further columns are ignored, and
    every time and voltage must be a finite number. The sample rate is
    inferred from the median timestamp spacing; the timestamps must
    increase, be uniform to 1% and give a finite rate, and the trace must
    span 2 s at that rate.

    Raises:
        ValueError: naming the file, and the line for a missing header, a
            row of another width than the header or a value that is not a
            finite number; or naming the file for fewer than 3 samples,
            timestamps that do not increase, are not uniform or are too
            close for a finite rate, or less than 2 s of signal.
    """
    path = Path(path)
    data = read_numeric_csv(path, ("t_seconds", "voltage"))
    if len(data) < 3:
        raise ValueError(f"{path}: too few samples")
    # the spacings go to the buffer the voltages take after the checks, and are
    # sorted there: the smallest, the median and the largest without a copy
    samples = np.empty(len(data))
    dt = samples[:-1]
    np.subtract(data[1:, 0], data[:-1, 0], out=dt)
    dt.sort()
    low, high = float(dt[0]), float(dt[-1])
    if not low > 0:
        raise ValueError(f"{path}: timestamps must increase from row to row")
    middle = (len(dt) - 1) // 2
    spacing = float(np.mean(dt[middle : middle + 2 - len(dt) % 2]))  # np.median's value
    # the largest |dt - spacing| is at the smallest or the largest dt, rounding included
    if max(abs(high - spacing), abs(low - spacing)) > 0.01 * spacing:
        raise ValueError(f"{path}: timestamps are not uniformly spaced")
    sample_rate = 1.0 / spacing
    if not math.isfinite(sample_rate):
        raise ValueError(f"{path}: a timestamp spacing of {spacing!r} s gives no finite sample rate")
    if len(samples) < 2 * sample_rate:  # the product is inf for a rate near the float maximum
        raise ValueError(f"{path}: need at least 2 s of signal at {sample_rate:g} Hz, got {len(samples)} samples")
    samples[:] = data[:, 1]
    return samples, sample_rate


def read_nni_csv(path) -> np.ndarray:
    """The NN intervals in ms of a headed CSV whose first column is interval_ms.

    The file is read under the one rule of ``fileio.read_numeric_csv``, and
    every interval must be a positive finite number.

    Raises:
        ValueError: naming the file, and the line for a missing header or
            an interval that is not a positive finite number; or naming
            the file when it holds no interval.
    """
    path = Path(path)
    data = read_numeric_csv(path, ("interval_ms",), positive=True)
    if len(data) == 0:
        raise ValueError(f"{path}: no intervals after the header")
    return data[:, 0].copy()


def write_features_csv(path, rows) -> None:
    """Write a (segments, 25) feature array, one row per segment under the 25 named columns."""
    write_csv(path, FEATURE_NAMES, (",".join(map(repr, row)) for row in np.asarray(rows).tolist()))
