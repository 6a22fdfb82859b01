"""In-memory span tracer that wraps fairhrv's public functions from outside.

Modules bind functions at import time (``from .nnet import forward``), so a
function is replaced in every ``fairhrv`` module that holds it, not only in
the module that defines it. Spans are kept as (name, start, end, parent, n)
records, where ``n`` is an optional work count taken from the call (windows
written, bytes written, records returned).
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _len_of(position):
    return lambda args, result: len(args[position])


# (module, attribute) of every traced function, with an optional work count.
# Methods are given as "Class.method".
LAYER_FUNCTIONS = (
    ("fairhrv.cli", "main", None),
    ("fairhrv.dataset", "generate_synthetic", None),
    ("fairhrv.dataset", "load_cohort", lambda args, result: len(result)),
    ("fairhrv.dataset", "split_cohort", None),
    ("fairhrv.dataset", "standardize", None),
    ("fairhrv.dataset", "Cohort.feature_tensor", None),
    ("fairhrv.dataset", "write_windows_csv", _len_of(1)),
    ("fairhrv.dataset", "write_labels_csv", None),
    ("fairhrv.dataset", "write_demographics_csv", None),
    ("fairhrv.dataset", "write_catalog_json", None),
    ("fairhrv.hrv_features", "read_ecg_csv", None),
    ("fairhrv.hrv_features", "detect_r_peaks", None),
    ("fairhrv.hrv_features", "extract_features", None),
    ("fairhrv.hrv_features", "write_features_csv", None),
    ("fairhrv.nnet", "init_params", None),
    ("fairhrv.nnet", "forward", None),
    ("fairhrv.nnet", "mtl_loss", None),
    ("fairhrv.nnet", "backward", None),
    ("fairhrv.nnet", "adam_step", None),
    ("fairhrv.nnet", "sample_dropout_mask", None),
    ("fairhrv.nnet", "mc_forward", None),
    ("fairhrv.nnet", "input_gradient", None),
    ("fairhrv.mitigation", "train_baseline", None),
    ("fairhrv.mitigation", "train_reweighted", None),
    ("fairhrv.mitigation", "train_mtl_with_checkpoints", None),
    ("fairhrv.mitigation", "evaluate_uncertainties", lambda args, result: len(result)),
    ("fairhrv.mitigation", "select_checkpoint", None),
    ("fairhrv.mitigation", "final_predict", None),
    ("fairhrv.pipeline", "prepare_split", None),
    ("fairhrv.pipeline", "run_base_model", None),
    ("fairhrv.pipeline", "run_reweighted_model", None),
    ("fairhrv.pipeline", "run_mitigation", None),
    ("fairhrv.pipeline", "evaluate_predictions", None),
    ("fairhrv.checkpoint_io", "save_checkpoint", None),
    ("fairhrv.checkpoint_io", "load_checkpoint", None),
    ("fairhrv.fileio", "atomic_write_bytes", _len_of(1)),
    ("fairhrv.fileio", "sha256_file", None),
    ("fairhrv.saliency", "average_saliency_over_windows", None),
    ("fairhrv.saliency", "write_saliency_csv", None),
    ("fairhrv.saliency", "write_saliency_svg", None),
)


class Tracer:
    """Records nested spans in one thread; ``install`` patches, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[index].n = count(args, result)
                return result
            finally:
                self._close(index)

        return traced

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Wrap each function in its defining module and wherever else it is bound."""
        for module_name, attr, count in functions:
            module = sys.modules[module_name]
            short = module_name.split(".")[-1]
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self.wrap(f"{short}.{method}", original, count))
                continue
            original = getattr(module, attr)
            traced = self.wrap(f"{short}.{attr}", original, count)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "")
                if holder_name.split(".")[0] != "fairhrv":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def to_records(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "n": s.n}
            for s in self.spans
        ]


def descendants(spans, root: int) -> list:
    """Indices of every span below ``root`` (spans are appended in start order)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def self_times(spans) -> list:
    """Each span's duration minus its children's.

    Spans come from one thread, so a span's children are disjoint and lie
    inside it.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent != -1:
            out[s.parent] -= s.duration
    return out


def ancestor_names(spans, index: int) -> set:
    names = set()
    parent = spans[index].parent
    while parent != -1:
        names.add(spans[parent].name)
        parent = spans[parent].parent
    return names
