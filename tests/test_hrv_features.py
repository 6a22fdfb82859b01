"""Unit and property tests for the HRV feature extractor and R-peak detector."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.signal import welch

from fairhrv import hrv_features
from fairhrv.hrv_features import (
    FEATURE_NAMES,
    detect_r_peaks,
    extract_features,
    read_ecg_csv,
    read_nni_csv,
    write_features_csv,
)
from hrv_oracle import oracle_features, random_nn_series
from peak_memory import peak_mb
from reference_detector import reference_detect_r_peaks
from reader_outcome import DIVERGENT_VALUES, NOT_A_NUMBER, fast_and_scan
from reference_readers import reference_read_ecg_csv, reference_read_nni_csv


def rel_err(a, b, floor=1.0):
    return abs(a - b) / max(floor, abs(a), abs(b))


def named_features(series):
    """{feature name: value} of ``extract_features`` on ``series``."""
    return dict(zip(FEATURE_NAMES, extract_features(series)))


class TestTypes:
    def test_feature_row_has_25_named_values(self):
        assert len(FEATURE_NAMES) == 25
        row = extract_features(np.full(20, 800.0))
        assert row.shape == (25,) and row.dtype == np.float64


# (offset from R in s, amplitude, width in s) of the P, Q, R, S and T waves
ECG_WAVES = ((-0.160, 0.12, 0.025), (-0.025, -0.12, 0.008), (0.0, 1.0, 0.010), (0.025, -0.20, 0.008),
             (0.280, 0.30, 0.050))


def synthetic_ecg(seed, seconds, fs, noise=0.02, jitter_ms=20.0, decay_s=None):
    """(samples, sample_rate) of template beats on a jittered RR series, baseline wander and white noise.

    The beats start at 1 s and stop 1 s before the end. With ``decay_s``
    their amplitude falls as exp(-t / decay_s).
    """
    rng = np.random.default_rng([seed, int(fs)])
    n = int(round(seconds * fs))
    t = np.arange(n) / fs
    x = 0.15 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(0, 2 * np.pi)) + rng.normal(0.0, noise, size=n)
    r_time = 1.0
    half = int(0.45 * fs)
    while r_time < seconds - 1.0:
        centre = int(round(r_time * fs))
        lo, hi = max(0, centre - half), min(n, centre + half + 1)
        dt = t[lo:hi] - r_time
        amplitude = 1.0 if decay_s is None else np.exp(-r_time / decay_s)
        x[lo:hi] += amplitude * sum(a * np.exp(-0.5 * ((dt - mu) / w) ** 2) for mu, a, w in ECG_WAVES)
        r_time += np.clip(0.8 + 0.035 * np.sin(2 * np.pi * 0.25 * r_time) + rng.normal(0.0, jitter_ms / 1000.0),
                          0.45, 1.4)
    return x, fs


class TestDetectRPeaks:
    def test_impulse_train_one_hz(self):
        fs = 250.0
        x = np.zeros(int(fs * 12))
        x[:: int(fs)] = 1.0
        nni = detect_r_peaks(x, fs)
        assert np.allclose(nni, 1000.0)

    def test_flat_signal_has_no_peaks(self):
        with pytest.raises(ValueError, match="^signal has no energy peaks above threshold$"):
            detect_r_peaks(np.zeros(1000), 250.0)

    def test_template_beats_with_jitter(self):
        # oracle: the planted peak positions themselves
        fs = 250.0
        rng = np.random.default_rng(7)
        beat_t = np.linspace(-0.05, 0.05, int(0.1 * fs))
        template = np.exp(-((beat_t / 0.012) ** 2))  # narrow R wave
        spacing = 0.8 + rng.uniform(-0.08, 0.08, size=14)
        centers = (np.cumsum(spacing) * fs).astype(int)
        x = rng.normal(0, 0.02, size=int(centers[-1] + fs))
        for c in centers:
            lo = c - len(template) // 2
            x[lo : lo + len(template)] += template
        nni = detect_r_peaks(x, fs)
        planted = np.diff(centers) / fs * 1000.0
        assert len(nni) == len(planted)
        assert np.max(np.abs(nni - planted)) <= 4.0

    @pytest.mark.parametrize("offset", [5.0, 500.0, -80.0])
    def test_dc_offset_leaves_the_intervals(self, offset):
        # zero-padded averages once let an offset into the band-pass at both edges
        samples, fs = synthetic_ecg(6, 300.0, 250.0)
        want = detect_r_peaks(samples, fs)
        got = detect_r_peaks(samples + offset, fs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", [5.0, 0.3, -2.7])
    def test_constant_trace_has_no_peaks(self, value):
        with pytest.raises(ValueError, match="^signal has no energy peaks above threshold$"):
            detect_r_peaks(np.full(7500, value), 250.0)

    @pytest.mark.parametrize("scale", [1e160, -1e200, 1e308])
    def test_voltages_too_large_to_square_are_refused_in_one_error(self, scale):
        # the squared slope once overflowed: three RuntimeWarnings, then "found 0 peak(s)"
        x = np.zeros(60 * 250)
        x[::250] = scale
        with pytest.raises(ValueError, match="^ECG voltages too large: "):
            detect_r_peaks(x, 250.0)

    def test_largest_voltages_that_square_keep_their_intervals(self):
        # a power-of-two scale rounds nothing, so the overflow check moves no bit below it
        samples, fs = synthetic_ecg(6, 300.0, 250.0)
        assert np.array_equal(detect_r_peaks(samples * 2.0**480, fs), detect_r_peaks(samples, fs))

    @pytest.mark.parametrize("width", [1, 2, 7, 50, 51, 199, 200, 400, 1001])
    def test_window_means_are_the_means_of_the_samples_held(self, width):
        x = np.random.default_rng(width).normal(size=400)
        sums = np.concatenate(([0.0], np.cumsum(x)))
        got = hrv_features._window_means(sums, width)
        want = [x[max(0, i - width // 2) : i + (width + 1) // 2].mean() for i in range(len(x))]
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        # away from the ends, the window of np.convolve's "same" mode
        inner = slice(width // 2, max(width // 2, len(x) - (width + 1) // 2 + 1))
        assert np.allclose(got[inner], np.convolve(x, np.full(width, 1.0 / width), mode="same")[: len(x)][inner],
                           rtol=0, atol=1e-12)
        # a stretch of the sums gives, bit for bit, the means whose windows it holds
        stretch = hrv_features._window_means(sums[100:301], width)
        held = slice(width // 2, 200 - (width + 1) // 2 + 1)
        assert np.array_equal(stretch[held], got[100:300][held])

    @pytest.mark.parametrize("block", [1, 37, 4096])
    def test_band_pass_block_size_changes_nothing(self, monkeypatch, block):
        signal = synthetic_ecg(7, 120.0, 250.0)
        want = detect_r_peaks(*signal)
        monkeypatch.setattr(hrv_features, "BAND_BLOCK_SAMPLES", block)
        assert np.array_equal(detect_r_peaks(*signal), want)

    def test_artifact_intervals_dropped(self):
        # A 5 s pause between bursts produces one interval > 3000 ms, which
        # must be rejected while the surrounding 1 s intervals survive.
        fs = 250.0
        x = np.zeros(int(fs * 16))
        beats = [0, 1, 2, 3, 8, 9, 10]  # seconds
        for b in beats:
            x[int(b * fs)] = 1.0
        nni = detect_r_peaks(x, fs)
        assert np.allclose(nni, 1000.0)
        assert len(nni) == 5


class TestDetectorOracle:
    """The running-sum detector finds exactly the beats of the frozen np.convolve one."""

    @pytest.mark.parametrize("fs,seconds", [(250.0, 300.0), (1000.0, 90.0)])
    @pytest.mark.parametrize("noise,jitter_ms", [(0.005, 5.0), (0.02, 20.0), (0.05, 60.0)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_intervals_as_reference(self, seed, fs, seconds, noise, jitter_ms):
        signal = synthetic_ecg(seed, seconds, fs, noise, jitter_ms)
        got = detect_r_peaks(*signal)
        assert np.array_equal(got, reference_detect_r_peaks(*signal))
        assert len(got) >= seconds / 1.4 - 3

    @pytest.mark.parametrize("fs", [250.0, 1000.0])
    def test_decaying_amplitude_same_intervals_as_reference(self, fs):
        # the threshold, set from the first 2 s, falls with the beats it accepts
        signal = synthetic_ecg(4, 120.0, fs, decay_s=100.0)
        got = detect_r_peaks(*signal)
        assert np.array_equal(got, reference_detect_r_peaks(*signal))

    def test_peak_memory_per_sample(self):
        # the running sum and the band-pass hold 16 bytes a sample at the peak (the np.convolve detector 32);
        # one more full-size float64 buffer beside them would make 24
        signal = synthetic_ecg(5, 1200.0, 250.0)
        n = len(signal[0])
        assert peak_mb(detect_r_peaks, *signal) * 2**20 / n < 22


class TestExtractFeatures:
    def test_constant_series(self):
        vec = named_features(np.full(20, 800.0))
        assert vec["sdnn"] == 0.0
        assert vec["sdsd"] == 0.0
        assert vec["rmssd"] == 0.0
        assert vec["range_nni"] == 0.0
        assert vec["mean_hr"] == pytest.approx(75.0, abs=1e-12)
        # zero variance collapses the whole spectrum and the Poincare plot
        assert vec["lf"] == 0.0 and vec["hf"] == 0.0 and vec["vlf"] == 0.0
        assert vec["total_power"] == 0.0
        assert vec["csi"] == 0.0 and vec["cvi"] == 0.0

    def test_counting_example(self):
        vec = named_features(np.array([800.0, 860.0, 850.0]))
        assert vec["nni_50"] == 1.0
        assert vec["pnni_50"] == 50.0
        assert vec["nni_20"] == 1.0
        assert vec["pnni_20"] == 50.0

    def test_sinusoidal_modulation_at_lf(self):
        # 0.10 Hz modulation lands in the LF band; oracle below is a direct
        # DFT of the same interpolated series.
        rng = np.random.default_rng(3)
        n = 600
        base = 800.0
        t_approx = np.cumsum(np.full(n, base)) / 1000.0
        series = base + 60.0 * np.sin(2 * np.pi * 0.10 * t_approx)
        vec = named_features(series)
        assert vec["lf"] > 10.0 * vec["hf"]
        assert vec["lfnu"] > 90.0

        t = np.cumsum(series) / 1000.0
        grid = np.arange(t[0], t[-1], 0.25)
        from hrv_oracle import notaknot_spline_eval

        x = notaknot_spline_eval(t, series, grid)
        x = x - x.mean()
        freqs = np.fft.rfftfreq(len(x), 0.25)
        power = np.abs(np.fft.rfft(x)) ** 2
        lf_mask = (freqs >= 0.04) & (freqs < 0.15)
        hf_mask = (freqs >= 0.15) & (freqs < 0.40)
        assert power[lf_mask].sum() > 10.0 * power[hf_mask].sum()


class TestInvariants:
    def test_ratio_features_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            series = random_nn_series(rng)
            vec = named_features(series)
            assert abs(vec["cvnni"] - vec["sdnn"] / vec["mean_nni"]) < 1e-12
            assert abs(vec["cvsd"] - vec["rmssd"] / vec["mean_nni"]) < 1e-12

    def test_total_power_is_band_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            vec = named_features(random_nn_series(rng))
            assert rel_err(vec["total_power"], vec["vlf"] + vec["lf"] + vec["hf"], floor=1e-30) < 1e-9

    def test_normalized_units_sum_to_100(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            vec = named_features(random_nn_series(rng))
            if vec["lf"] + vec["hf"] > 0:
                assert abs(vec["lfnu"] + vec["hfnu"] - 100.0) < 1e-9

    def test_scaling_intervals(self):
        rng = np.random.default_rng(14)
        series = random_nn_series(rng)
        k = 1.75
        a = named_features(series)
        b = named_features(series * k)
        for name in ("mean_nni", "sdnn", "sdsd", "rmssd", "median_nni", "range_nni"):
            assert rel_err(b[name], k * a[name]) < 1e-9
        # absolute-ms thresholds are not scale invariant: counts can only
        # grow when all diffs move away from the threshold (k > 1)
        assert b["nni_50"] >= a["nni_50"]
        assert b["nni_20"] >= a["nni_20"]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded_features(self, seed):
        series = random_nn_series(np.random.default_rng(seed))
        vec = named_features(series)
        assert 0.0 <= vec["pnni_50"] <= 100.0
        assert 0.0 <= vec["pnni_20"] <= 100.0
        for name in ("sdnn", "sdsd", "rmssd", "range_nni", "lf", "hf", "vlf", "total_power"):
            assert vec[name] >= 0.0
        assert np.all(np.isfinite(list(vec.values())))


class TestAgainstOracle:
    def test_random_series_match_direct_formulas(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            series = random_nn_series(rng)
            vec = named_features(series)
            expected = oracle_features(series)
            for name in FEATURE_NAMES:
                assert rel_err(vec[name], expected[name]) < 1e-9, name

    def test_tiny_series_match(self):
        # linear-interpolation fallback path (n < 4)
        for series in ([800.0, 900.0], [700.0, 900.0, 860.0]):
            vec = named_features(np.array(series))
            expected = oracle_features(series)
            for name in FEATURE_NAMES:
                assert rel_err(vec[name], expected[name]) < 1e-9, name


def nn_series(min_size, max_size):
    """Uneven NN series in ms, in the range the ECG reader keeps."""
    return st.lists(st.floats(250.0, 3000.0), min_size=min_size, max_size=max_size).map(np.array)


def within(got, want, rel):
    return np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestAgainstScipy:
    """The numpy spline and Welch PSD against the scipy functions they replace."""

    @staticmethod
    def resampled(nni):
        t = np.cumsum(nni) / 1000.0
        grid = np.arange(t[0], t[-1], 1.0 / hrv_features.RESAMPLE_HZ)
        return t, grid

    # (4, 4): the fewest knots the spline takes; (4, 20): under 64 s, so
    # the grid is shorter than one 256-point Welch segment
    @pytest.mark.parametrize("min_size,max_size", [(4, 4), (4, 20), (21, 400)])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_spline_and_welch_match(self, min_size, max_size, data):
        nni = data.draw(nn_series(min_size, max_size))
        t, grid = self.resampled(nni)
        at = np.concatenate([grid, t])
        want = CubicSpline(t, nni)(at)
        assert within(hrv_features._notaknot_spline(t, nni, at), want, 1e-12)

        centered = want[: len(grid)] - np.mean(want[: len(grid)])
        nperseg = min(hrv_features.WELCH_SEGMENT, len(centered))
        if max_size <= 20:
            assert nperseg < hrv_features.WELCH_SEGMENT
        freqs, psd = hrv_features._welch(centered, hrv_features.RESAMPLE_HZ, nperseg)
        want_freqs, want_psd = welch(centered, fs=hrv_features.RESAMPLE_HZ, window="hann", nperseg=nperseg,
                                     noverlap=nperseg // 2, detrend=False, scaling="density")
        assert np.array_equal(freqs, want_freqs)
        assert within(psd, want_psd, 1e-12)

    def test_long_series_solves_in_linear_memory(self):
        # a dense 20,000 x 20,000 solve would need 3.2 GB
        nni = random_nn_series(np.random.default_rng(15), min_len=20_000, max_len=20_000)
        t, grid = self.resampled(nni)
        tracemalloc.start()
        try:
            got = hrv_features._notaknot_spline(t, nni, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert within(got, CubicSpline(t, nni)(grid), 1e-12)


class TestCsv:
    def test_roundtrip_nni(self, tmp_path):
        path = tmp_path / "nni.csv"
        path.write_text("interval_ms\n800.0\n850.5\n790.25\n")
        assert np.allclose(read_nni_csv(path), [800.0, 850.5, 790.25])

    def test_ecg_csv_and_rate_inference(self, tmp_path):
        fs = 250.0
        t = np.arange(int(fs * 3)) / fs
        x = np.zeros_like(t)
        x[:: int(fs)] = 1.0
        lines = ["t_seconds,voltage"] + [f"{ti:.8f},{vi:.6f}" for ti, vi in zip(t, x)]
        path = tmp_path / "ecg.csv"
        path.write_text("\n".join(lines) + "\n")
        _, sample_rate = read_ecg_csv(path)
        assert sample_rate == pytest.approx(fs, rel=1e-6)

    def test_nonuniform_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t_seconds,voltage", "0.0,0.1", "0.004,0.2", "0.012,0.3", "0.016,0.4"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError):
            read_ecg_csv(path)

    def test_write_features_header(self, tmp_path):
        row = extract_features(np.full(10, 800.0))
        path = tmp_path / "features.csv"
        write_features_csv(path, row[None])
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(FEATURE_NAMES)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 25


def _write_csv(path, header, columns, style):
    """Write ``columns`` of floats under ``header`` in one of the styles readers accept."""
    fmt, newline, blank_rows, extra_column, quoted = style
    lines = [header + (",note" if extra_column else "")]
    for i, values in enumerate(zip(*columns)):
        if i in blank_rows:
            lines.append("")
        fields = [repr(v) if fmt == "repr" else f"{v:.6f}" for v in values]
        if quoted:
            fields = [f'"{f}"' for f in fields]
        lines.append(",".join(fields) + (",x" if extra_column else ""))
    path.write_bytes((newline.join(lines) + newline).encode())


_STYLES = st.tuples(
    st.sampled_from(["repr", "%.6f"]),
    st.sampled_from(["\n", "\r\n"]),
    st.sets(st.integers(0, 60), max_size=4),
    st.booleans(),
    st.booleans(),
)


def _same_outcome(read, reference, path):
    """Both raise ValueError, or both return the same float64 bits."""
    try:
        expected = reference(path)
    except ValueError:
        with pytest.raises(ValueError):
            read(path)
        return None
    return read(path), expected


class TestReaderOracle:
    """The loadtxt-based readers return bit for bit what the row-by-row ones did."""

    @given(
        volts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=20, max_size=60),
        dt=st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0]),
        t0=st.floats(0.0, 1000.0),
        style=_STYLES,
    )
    @settings(max_examples=150, deadline=None)
    def test_ecg_matches_reference(self, tmp_path_factory, volts, dt, t0, style):
        path = tmp_path_factory.mktemp("ecg") / "ecg.csv"
        times = [t0 + i * dt for i in range(len(volts))]
        _write_csv(path, "t_seconds,voltage", (times, volts), style)
        outcome = _same_outcome(read_ecg_csv, reference_read_ecg_csv, path)
        if outcome is not None:
            got, expected = outcome
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1] == expected[1]

    @given(
        intervals=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           min_size=1, max_size=60),
        style=_STYLES,
    )
    @settings(max_examples=150, deadline=None)
    def test_nni_matches_reference(self, tmp_path_factory, intervals, style):
        path = tmp_path_factory.mktemp("nni") / "nni.csv"
        _write_csv(path, "interval_ms", (intervals,), style)
        outcome = _same_outcome(read_nni_csv, reference_read_nni_csv, path)
        if outcome is not None:
            got, expected = outcome
            assert got.tobytes() == expected.tobytes()


def _numeric_lines(kind, rows=1000):
    """Header and rows of a valid ECG (250 Hz) or NN-interval CSV."""
    if kind == "ecg":
        return ["t_seconds,voltage"] + [f"{i / 250!r},{i % 5 * 0.25}" for i in range(rows)]
    return ["interval_ms"] + [f"{800 + i % 7 * 10}.0" for i in range(rows)]


_READERS = {"ecg": (read_ecg_csv, "voltage", "a finite number"),
            "nni": (read_nni_csv, "interval_ms", "a positive finite number")}


class TestReaderErrors:
    @pytest.mark.parametrize("kind", ["ecg", "nni"])
    @pytest.mark.parametrize("text,read_as", DIVERGENT_VALUES)
    def test_value_numpy_once_read_otherwise_is_read_as_the_scan_reads_it(self, tmp_path, kind, text, read_as):
        read, name, requirement = _READERS[kind]
        lines = _numeric_lines(kind)
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + text if kind == "ecg" else text
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(lines) + "\n")
        got, want, scanned = fast_and_scan(read, path)
        assert got == want and scanned
        if isinstance(read_as, float):
            assert (read(path)[0] if kind == "ecg" else read(path))[2] == read_as
        else:
            end = f"{name} is {text!r}, not {requirement}" if read_as == NOT_A_NUMBER else read_as
            assert got == f"{path}, line 4: {end}"

    @pytest.mark.parametrize("kind", ["ecg", "nni"])
    def test_padded_value_is_refused_whatever_follows(self, tmp_path, kind):
        # numpy's parser once read the padded value, unless a later bad one sent the file to the scan
        read, name, requirement = _READERS[kind]
        lines = _numeric_lines(kind)
        head, _, value = lines[3].rpartition(",")
        lines[3] = f"{head},\x1c{value}" if head else f"\x1c{value}"
        lines[800] = lines[800].rsplit(",", 1)[0] + ",zz" if kind == "ecg" else "zz"
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(lines) + "\n")
        got, want, _ = fast_and_scan(read, path)
        assert got == want == f"{path}, line 4: {name} is {chr(0x1c) + value!r}, not {requirement}"

    @pytest.mark.parametrize("kind", ["ecg", "nni"])
    def test_crlf_and_quoted_numbers_read_as_the_plain_file(self, tmp_path, kind):
        read = _READERS[kind][0]
        lines = _numeric_lines(kind)
        (tmp_path / "plain.csv").write_text("\n".join(lines) + "\n")
        rows = [",".join(f'"{field}"' for field in line.split(",")) for line in lines[1:]]
        (tmp_path / "quoted.csv").write_bytes("\r\n".join([lines[0], *rows, ""]).encode())
        plain, plain_scan, plain_scanned = fast_and_scan(read, tmp_path / "plain.csv")
        quoted, quoted_scan, quoted_scanned = fast_and_scan(read, tmp_path / "quoted.csv")
        assert plain == plain_scan == quoted == quoted_scan
        assert (plain_scanned, quoted_scanned) == (False, True)

    def test_error_names_line_after_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "ecg.csv"
        path.write_bytes(b"t_seconds,voltage\r\n0,1\r\n\r\n0.5,2\r\n1.0,zz\r\n")
        with pytest.raises(ValueError, match=r"ecg\.csv, line 5: voltage is 'zz', not a finite number$"):
            read_ecg_csv(path)

    def test_value_only_float_accepts_is_read(self, tmp_path):
        # numpy's parser refuses digit separators; the row scan reads them as before
        path = tmp_path / "nni.csv"
        path.write_text("interval_ms\n1_000.5\n800\n")
        assert read_nni_csv(path).tolist() == [1000.5, 800.0]

    def test_missing_header_names_line_1(self, tmp_path):
        path = tmp_path / "ecg.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"line 1: expected the header t_seconds,voltage"):
            read_ecg_csv(path)

    @pytest.mark.parametrize("times,message", [
        (["0", "0", "0", "0"], "timestamps must increase from row to row"),
        (["0", "1e-320", "2e-320", "3e-320"], "a timestamp spacing of 1e-320 s gives no finite sample rate"),
    ], ids=["zero-spacing", "subnormal-spacing"])
    def test_spacing_without_a_finite_sample_rate_names_file(self, tmp_path, times, message):
        # these once raised ZeroDivisionError and OverflowError
        path = tmp_path / "ecg.csv"
        path.write_text("t_seconds,voltage\n" + "".join(f"{t},{i + 1}\n" for i, t in enumerate(times)))
        with pytest.raises(ValueError, match=rf"ecg\.csv: {message}$"):
            read_ecg_csv(path)
