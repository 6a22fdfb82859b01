"""Gradient saliency maps over the 24x25 input windows.

A map is the signed gradient of a head's pre-sigmoid score with respect
to the input matrix; cohort-level maps are the elementwise mean over
samples, accumulated with compensated summation so the result is stable
under sample reordering. Exports: CSV (24 rows x 25 named columns) and a
fixed-size SVG heatmap with a diverging color scale anchored at zero.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import WINDOW_STEPS
from .fileio import atomic_write_text, write_csv
from .hrv_features import FEATURE_NAMES
from .nnet import ModelParams, input_gradient


class EmptyCohort(ValueError):
    """Saliency averaging needs at least one window."""


@dataclass(frozen=True)
class SaliencyMap:
    """Signed per-step, per-feature input attribution for one head."""

    values: np.ndarray
    feature_names: tuple
    head: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (WINDOW_STEPS, len(self.feature_names)):
            raise ValueError(f"saliency map must be {WINDOW_STEPS}x{len(self.feature_names)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("saliency values must be finite")

    def column_l1_mass(self, column_names) -> float:
        """Summed absolute attribution over the named feature columns."""
        idx = [self.feature_names.index(name) for name in column_names]
        return float(np.sum(np.abs(self.values[:, idx])))


def saliency_for_sample(params: ModelParams, window, head: str) -> SaliencyMap:
    """Map for a single window: gradient of the head's pre-sigmoid score.

    Gradients are signed; dropout is disabled. For a purely linear model
    the map equals the head's weight matrix.
    """
    grad = input_gradient(params, np.asarray(window, dtype=np.float64), head)
    return SaliencyMap(values=grad, feature_names=FEATURE_NAMES, head=head)


def _kahan_mean(stack: np.ndarray) -> np.ndarray:
    total = np.zeros(stack.shape[1:])
    compensation = np.zeros(stack.shape[1:])
    for sample in stack:
        y = sample - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total / stack.shape[0]


def average_saliency_over_windows(params: ModelParams, windows, head: str) -> SaliencyMap:
    """Mean map over an (n, 24, 25) stack of windows, such as ``cohort.feature_tensor()``.

    Raises:
        EmptyCohort: no windows.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[0] == 0:
        raise EmptyCohort("need a non-empty (n, steps, features) window stack")
    grads = input_gradient(params, windows, head)
    return SaliencyMap(values=_kahan_mean(grads), feature_names=FEATURE_NAMES, head=head)


def write_saliency_csv(smap: SaliencyMap, path) -> None:
    """24 rows x 25 named columns of signed values."""
    write_csv(path, smap.feature_names, (",".join(map(repr, row)) for row in smap.values.tolist()))


_NEG_COLOR = (59, 76, 192)
_POS_COLOR = (180, 4, 38)
CELL_W = 30
CELL_H = 16
MARGIN_LEFT = 50
MARGIN_TOP = 90


def _cell_color(value: float, vmax: float) -> str:
    if vmax <= 0:
        return "rgb(255,255,255)"
    t = max(-1.0, min(1.0, value / vmax))
    anchor = _POS_COLOR if t >= 0 else _NEG_COLOR
    a = abs(t)
    channels = tuple(round(255 + (c - 255) * a) for c in anchor)
    return "rgb({},{},{})".format(*channels)


def write_saliency_svg(smap: SaliencyMap, path) -> None:
    """Fixed-size heatmap: features across, time steps down, white at zero."""
    n_feat = len(smap.feature_names)
    width = MARGIN_LEFT + n_feat * CELL_W + 10
    height = MARGIN_TOP + WINDOW_STEPS * CELL_H + 10
    vmax = float(np.max(np.abs(smap.values)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">',
        f'<text x="{MARGIN_LEFT}" y="14" font-size="12">saliency: {smap.head}</text>',
    ]
    for j, name in enumerate(smap.feature_names):
        x = MARGIN_LEFT + j * CELL_W + CELL_W // 2
        parts.append(
            f'<text x="{x}" y="{MARGIN_TOP - 6}" text-anchor="start" '
            f'transform="rotate(-60 {x} {MARGIN_TOP - 6})">{name}</text>'
        )
    for i in range(WINDOW_STEPS):
        y = MARGIN_TOP + i * CELL_H
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + CELL_H - 4}" text-anchor="end">{i}</text>')
        for j in range(n_feat):
            color = _cell_color(float(smap.values[i, j]), vmax)
            parts.append(
                f'<rect x="{MARGIN_LEFT + j * CELL_W}" y="{y}" width="{CELL_W}" '
                f'height="{CELL_H}" fill="{color}" stroke="#ccc" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
