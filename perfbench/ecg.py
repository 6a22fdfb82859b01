"""Seeded synthetic single-lead ECG with known beat times.

The trace is a sum of template beats (P, Q, R, S and T waves as Gaussian
bumps) placed at the R times of a generated RR series, plus baseline
wander and white noise. The RR series carries respiratory and
low-frequency modulation and beat-to-beat noise, so every 60 s segment
has successive differences above 20 ms; the benchmark relies on that to
recover each segment's interval count from ``nni_20 / pnni_20``.
"""

import numpy as np

SAMPLE_RATE = 250.0

# (offset from R in s, amplitude, width in s)
_WAVES = (
    (-0.160, 0.12, 0.025),  # P
    (-0.025, -0.12, 0.008),  # Q
    (0.000, 1.00, 0.010),  # R
    (0.025, -0.20, 0.008),  # S
    (0.280, 0.30, 0.050),  # T
)
_TEMPLATE_HALF_S = 0.45


def rr_series_ms(seed: int, duration_s: float) -> np.ndarray:
    """RR intervals (ms) that fit, after a first beat at 1 s, before ``duration_s`` - 1 s."""
    rng = np.random.default_rng([seed, 0xEC6])
    mean_rr = rng.uniform(780.0, 820.0)
    resp_hz = rng.uniform(0.22, 0.30)
    n = int(duration_s * 1000.0 / mean_rr) + 16
    beat_t = np.arange(n) * mean_rr / 1000.0
    rr = (
        mean_rr
        + 35.0 * np.sin(2 * np.pi * resp_hz * beat_t + rng.uniform(0, 2 * np.pi))
        + 25.0 * np.sin(2 * np.pi * 0.1 * beat_t + rng.uniform(0, 2 * np.pi))
        + rng.normal(0.0, 20.0, size=n)
    )
    rr = np.clip(rr, 450.0, 1400.0)
    keep = int(np.searchsorted(np.cumsum(rr) / 1000.0, duration_s - 2.0, side="right"))
    return rr[:keep]


def ecg_trace(seed: int, rr_ms: np.ndarray, duration_s: float) -> np.ndarray:
    """Voltage samples at ``SAMPLE_RATE``; R peaks at 1 s and at 1 s + cumsum(rr_ms)."""
    rng = np.random.default_rng([seed, 0xEC7])
    n_samples = int(round(duration_s * SAMPLE_RATE))
    signal = np.zeros(n_samples)
    r_times = 1.0 + np.concatenate(([0.0], np.cumsum(rr_ms) / 1000.0))
    half = int(_TEMPLATE_HALF_S * SAMPLE_RATE)
    offsets = np.arange(-half, half + 1)
    for r in r_times:
        centre = int(round(r * SAMPLE_RATE))
        t = (centre + offsets) / SAMPLE_RATE - r
        beat = sum(a * np.exp(-0.5 * ((t - mu) / w) ** 2) for mu, a, w in _WAVES)
        signal[centre - half : centre + half + 1] += beat
    t_all = np.arange(n_samples) / SAMPLE_RATE
    signal += 0.15 * np.sin(2 * np.pi * 0.3 * t_all + rng.uniform(0, 2 * np.pi))
    signal += rng.normal(0.0, 0.02, size=n_samples)
    return signal


def write_ecg_csv(path, samples: np.ndarray) -> None:
    """The ``t_seconds,voltage`` CSV that ``fairhrv extract --ecg`` reads."""
    fs = SAMPLE_RATE
    body = "\n".join(f"{i / fs:.3f},{v:.6f}" for i, v in enumerate(samples.tolist()))
    with open(path, "w") as fh:
        fh.write("t_seconds,voltage\n")
        fh.write(body)
        fh.write("\n")
