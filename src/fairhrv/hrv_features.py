"""Heart-rate-variability feature extraction.

Computes the 25 features used throughout this package (16 time-domain,
7 frequency-domain, and the two Poincare indices csi/cvi) from a series
of normal-to-normal (NN) heartbeat intervals, plus a minimal R-peak
detector for raw single-lead ECG.

All operations are pure functions of their inputs and safe to call from
multiple threads.
"""

from dataclasses import dataclass, field
from pathlib import Path
import csv as _csv
import math

import numpy as np

from .fileio import write_csv

__all__ = [
    "EcgSignal",
    "NNIntervalSeries",
    "FeatureVector",
    "NoPeaks",
    "TooFewIntervals",
    "FEATURE_NAMES",
    "detect_r_peaks",
    "extract_features",
    "read_ecg_csv",
    "read_nni_csv",
    "write_features_csv",
]

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


class NoPeaks(ValueError):
    """Fewer than two usable R peaks were found in the signal."""


class TooFewIntervals(ValueError):
    """The NN series is too short for successive-difference features."""


@dataclass(frozen=True)
class EcgSignal:
    """Single-lead ECG voltage trace.

    Attributes:
        samples: voltage values, arbitrary units.
        sample_rate: sampling frequency in Hz, > 0.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise ValueError("ECG samples must be one-dimensional")
        if len(samples) < 2 * self.sample_rate:
            raise ValueError(
                f"need at least 2 s of signal ({int(2 * self.sample_rate)} samples), got {len(samples)}"
            )


@dataclass(frozen=True)
class NNIntervalSeries:
    """Normal-to-normal interbeat intervals in milliseconds."""

    intervals_ms: np.ndarray

    def __post_init__(self):
        intervals = np.asarray(self.intervals_ms, dtype=np.float64)
        object.__setattr__(self, "intervals_ms", intervals)
        if intervals.ndim != 1 or len(intervals) < 1:
            raise ValueError("need a one-dimensional, non-empty interval series")
        if not np.all(intervals > 0):
            raise ValueError("all NN intervals must be positive")

    def __len__(self):
        return len(self.intervals_ms)


@dataclass(frozen=True)
class FeatureVector:
    """One value per feature in ``FEATURE_NAMES``.

    ``frequency_undefined`` marks series too short to resolve one cycle of
    the lowest VLF frequency; the band powers are still computed from the
    PSD and reported. ``degenerate_poincare`` marks series where the
    Poincare ellipse collapses (zero transverse or longitudinal axis), in
    which case csi and/or cvi are emitted as 0.
    """

    mean_nni: float
    sdnn: float
    sdsd: float
    nni_50: float
    pnni_50: float
    nni_20: float
    pnni_20: float
    rmssd: float
    median_nni: float
    range_nni: float
    cvsd: float
    cvnni: float
    mean_hr: float
    max_hr: float
    min_hr: float
    std_hr: float
    lf: float
    hf: float
    lf_hf_ratio: float
    lfnu: float
    hfnu: float
    total_power: float
    vlf: float
    csi: float
    cvi: float
    frequency_undefined: bool = field(default=False, compare=False)
    degenerate_poincare: bool = field(default=False, compare=False)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    width = max(1, int(width))
    kernel = np.full(width, 1.0 / width)
    return np.convolve(x, kernel, mode="same")


def detect_r_peaks(signal: EcgSignal) -> NNIntervalSeries:
    """Detect R peaks and return the NN interval series in milliseconds.

    Pan-Tompkins style chain: band-pass approximated by a difference of
    moving averages (~5-15 Hz), central derivative, squaring, 150 ms
    moving-window integration, then an adaptive threshold at 0.5x the
    running peak average with a 250 ms refractory period. Peak locations
    are refined to the raw-signal maximum within +/-100 ms. Intervals
    outside [250, 3000] ms are dropped as artifacts.

    Raises:
        NoPeaks: fewer than two usable peaks found.
    """
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
        raise NoPeaks("signal has no energy peaks above threshold")

    # Python ints and floats from tolist(): numpy scalars make this loop
    # over every local maximum of the energy twice as slow.
    accepted = []
    accepted_energy = 0.0  # energy at accepted[-1]
    for idx, height in zip(candidates.tolist(), energy[candidates].tolist()):
        if accepted and idx - accepted[-1] < refractory:
            # Within refractory period: keep whichever bump is taller.
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

    # Re-apply the refractory rule after refinement in case two integrator
    # bumps collapsed onto the same raw maximum neighborhood.
    peaks = []
    for idx in refined:
        if peaks and idx - peaks[-1] < refractory:
            continue
        peaks.append(idx)

    if len(peaks) < 2:
        raise NoPeaks(f"found {len(peaks)} peak(s); need at least 2")

    intervals = np.diff(np.asarray(peaks, dtype=np.float64)) / fs * 1000.0
    intervals = intervals[(intervals >= MIN_NN_MS) & (intervals <= MAX_NN_MS)]
    if len(intervals) < 1:
        raise NoPeaks("all detected intervals rejected as artifacts")
    return NNIntervalSeries(intervals)


def _psd_of_interpolated(nni: np.ndarray):
    """Resample the NN series to a uniform grid and return (freqs, psd).

    Cubic-spline interpolation (not-a-knot ends) onto a 4 Hz grid; falls
    back to linear interpolation when there are fewer than 4 points. The
    gridded series is mean-subtracted before a Welch PSD (periodic Hann,
    256-point segments, 50% overlap, no per-segment detrend).
    """
    # imported here, not at module level: scipy.signal and scipy.interpolate
    # take longer to import than the rest of the package, and only feature
    # extraction needs them
    from scipy.interpolate import CubicSpline
    from scipy.signal import welch

    t = np.cumsum(nni) / 1000.0
    step = 1.0 / RESAMPLE_HZ
    grid = np.arange(t[0], t[-1], step)
    if len(grid) < 2:
        return None, None
    if len(nni) >= 4:
        resampled = CubicSpline(t, nni)(grid)
    else:
        resampled = np.interp(grid, t, nni)
    centered = resampled - np.mean(resampled)
    nperseg = min(WELCH_SEGMENT, len(centered))
    freqs, psd = welch(
        centered,
        fs=RESAMPLE_HZ,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        scaling="density",
    )
    return freqs, psd


def _band_power(freqs: np.ndarray, psd: np.ndarray, band) -> float:
    """Rectangular-rule power in [band_lo, band_hi); bands add exactly."""
    df = freqs[1] - freqs[0]
    mask = (freqs >= band[0]) & (freqs < band[1])
    return float(np.sum(psd[mask]) * df)


def extract_features(nni: NNIntervalSeries) -> FeatureVector:
    """Compute all 25 HRV features for one NN interval series.

    Time-domain conventions: sdnn and sdsd are sample standard deviations
    (divisor n-1); nni_50/nni_20 count successive differences strictly
    greater than 50/20 ms in magnitude; pnni_x = 100 * nni_x / (n-1);
    the heart-rate statistics are taken over the instantaneous rate
    60000/nni per interval, with std_hr the population standard deviation.

    Raises:
        TooFewIntervals: fewer than 2 intervals.
    """
    x = nni.intervals_ms
    n = len(x)
    if n < 2:
        raise TooFewIntervals(f"need at least 2 intervals, got {n}")

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
        frequency_undefined = True
    else:
        vlf = _band_power(freqs, psd, VLF_BAND)
        lf = _band_power(freqs, psd, LF_BAND)
        hf = _band_power(freqs, psd, HF_BAND)
        duration_s = float(np.sum(x[1:])) / 1000.0
        frequency_undefined = duration_s < 1.0 / VLF_BAND[0]
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
    degenerate = transverse == 0.0 or longitudinal == 0.0
    csi = longitudinal / transverse if transverse > 0 else 0.0
    cvi = float(np.log10(longitudinal * transverse)) if longitudinal * transverse > 0 else 0.0

    return FeatureVector(
        mean_nni=mean_nni, sdnn=sdnn, sdsd=sdsd,
        nni_50=nni_50, pnni_50=pnni_50, nni_20=nni_20, pnni_20=pnni_20,
        rmssd=rmssd, median_nni=median_nni, range_nni=range_nni,
        cvsd=cvsd, cvnni=cvnni,
        mean_hr=mean_hr, max_hr=max_hr, min_hr=min_hr, std_hr=std_hr,
        lf=lf, hf=hf, lf_hf_ratio=lf_hf_ratio, lfnu=lfnu, hfnu=hfnu,
        total_power=total_power, vlf=vlf,
        csi=csi, cvi=cvi,
        frequency_undefined=frequency_undefined,
        degenerate_poincare=degenerate,
    )


def _scan_numeric_rows(path, columns, positive):
    """Row-by-row parse of a headed numeric CSV; raises at its first bad line.

    The exact, slow path behind ``_read_numeric_csv``: one ``float()`` per
    value, with the line numbers ``csv.reader`` counts.
    """
    requirement = "a positive finite number" if positive else "a finite number"
    rows = []
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        next(reader, None)
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) < len(columns):
                    raise ValueError(f"{path}, line {reader.line_num}: expected {len(columns)} column(s), "
                                     f"got {len(row)}")
                values = []
                for name, text in zip(columns, row):
                    try:
                        value = float(text)
                    except ValueError:
                        value = math.nan
                    if not (math.isfinite(value) and (value > 0 or not positive)):
                        raise ValueError(f"{path}, line {reader.line_num}: {name} is {text!r}, "
                                         f"not {requirement}")
                    values.append(value)
                rows.append(values)
        except _csv.Error as exc:  # such as a field over the csv module's size limit
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, len(columns))


def _read_numeric_csv(path, columns, positive=False):
    """(rows, len(columns)) float64 array of the leading columns of a headed CSV.

    The first row is a header of at least ``len(columns)`` fields. Blank
    lines are skipped, CRLF line endings and quoted numbers are accepted,
    and columns past ``columns`` are ignored. Every value must be finite,
    and with ``positive`` also > 0.

    ``np.loadtxt`` parses the body in C, with the same correctly rounded
    text-to-float64 conversion as ``float()``. When it refuses the body,
    or the body breaks the rules above, the file is parsed again row by
    row (``_scan_numeric_rows``). That scan raises at the first bad line,
    or returns the values that only ``float()`` accepts, such as ``1_000``.
    loadtxt's own row numbers are 0-based for some errors and 1-based for
    others, so they are not reported.

    Raises:
        ValueError: naming the file, and the line for a row defect.
    """
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < len(columns):
            raise ValueError(f"{path}, line 1: expected the header {','.join(columns)}")
        # loadtxt warns about a body without rows, so it never sees one
        if not any(line.strip("\r\n") for line in fh):
            return np.zeros((0, len(columns)))
        header_lines = reader.line_num
    # Given a path, not an open file, loadtxt reads large blocks instead of
    # one line at a time: 0.45 s instead of 0.58 s for 1.8 M rows on a
    # 2-vCPU host. It also opens a path ending in .gz, .bz2 or .xz as
    # compressed, and then raises OSError on plain text; the row scan reads
    # such a file as text.
    try:
        data = np.loadtxt(path, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                          skiprows=header_lines, usecols=range(len(columns)), ndmin=2)
    except (OSError, ValueError):
        data = None
    if data is None or not np.isfinite(data).all() or (positive and not (data > 0).all()):
        data = _scan_numeric_rows(path, columns, positive)
    return data


def read_ecg_csv(path) -> EcgSignal:
    """Read an ECG trace from a headed CSV whose first two columns are t_seconds, voltage.

    Input rules are those of ``_read_numeric_csv``: blank lines are
    skipped, CRLF line endings and quoted numbers are accepted, further
    columns are ignored, and every time and voltage must be finite. The
    sample rate is inferred from the median timestamp spacing; the
    timestamps must be uniform to 1%.

    Raises:
        ValueError: naming the file, and the line for a missing header, a
            short row or a value that is not a finite number; or naming
            the file for fewer than 3 samples or non-uniform timestamps.
    """
    path = Path(path)
    data = _read_numeric_csv(path, ("t_seconds", "voltage"))
    if len(data) < 3:
        raise ValueError(f"{path}: too few samples")
    dt = np.diff(data[:, 0])
    if np.max(np.abs(dt - np.median(dt))) > 0.01 * np.median(dt):
        raise ValueError(f"{path}: timestamps are not uniformly spaced")
    return EcgSignal(samples=data[:, 1].copy(), sample_rate=1.0 / float(np.median(dt)))


def read_nni_csv(path) -> NNIntervalSeries:
    """Read NN intervals from a headed CSV whose first column is interval_ms.

    Input rules are those of ``_read_numeric_csv``, and every interval
    must be positive.

    Raises:
        ValueError: naming the file, and the line for a missing header or
            an interval that is not a positive finite number; or naming
            the file when it holds no interval.
    """
    path = Path(path)
    data = _read_numeric_csv(path, ("interval_ms",), positive=True)
    if len(data) == 0:
        raise ValueError(f"{path}: no intervals after the header")
    return NNIntervalSeries(data[:, 0].copy())


def write_features_csv(path, vectors) -> None:
    """Write one row per feature vector; exactly the 25 named columns."""
    write_csv(path, FEATURE_NAMES, (",".join(map(repr, vec.as_array().tolist())) for vec in vectors))
