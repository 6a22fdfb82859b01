"""Tests for cohort construction, splitting, standardization, and synthesis."""

import functools
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairhrv import dataset, pipeline
from fairhrv.cli import main
from fairhrv.dataset import (
    PREDICTIONS_HEADER,
    AttributeCoding,
    Cohort,
    LabeledWindow,
    encode_protected,
    generate_synthetic,
    load_cohort,
    read_outcomes_csv,
    read_windows_csv,
    split_cohort,
    standardize,
    write_catalog_json,
    write_demographics_csv,
    write_labels_csv,
    write_predictions_csv,
    write_windows_csv,
)
from fairhrv.fairness import evaluate_predictions
from reader_outcome import DIVERGENT_VALUES, NOT_A_NUMBER, fast_and_scan
from reference_dataset import reference_generate_synthetic, reference_windows_csv_bytes


def make_cohort(n, seed=0, attribute="group"):
    """n windows of participants p000-p006 in turn; p000-p003 are group a, p004-p006 group b."""
    rng = np.random.default_rng(seed)
    windows = [LabeledWindow(f"s{i:05d}", f"p{i % 7:03d}", rng.normal(size=(24, 25)), int(rng.integers(0, 2)))
               for i in range(n)]
    coding = AttributeCoding(mapping={"a": 1, "b": 0}, counts={"a": 4, "b": 3},
                             codes={f"p{k:03d}": int(k < 4) for k in range(7)})
    return Cohort(tuple(windows), {attribute: coding})


def write_windows(path, cohort):
    windows = cohort.windows
    write_windows_csv(path, [w.sample_id for w in windows], [w.participant_id for w in windows],
                      cohort.feature_tensor())


def check_majority_coding(coding, raw):
    """``coding`` is the majority rule's for ``raw`` (participant id -> one of two categories)."""
    privileged = coding.privileged_category()
    (other,) = set(coding.mapping) - {privileged}
    assert coding.counts == {cat: list(raw.values()).count(cat) for cat in (privileged, other)}
    assert coding.counts[privileged] >= coding.counts[other]
    if coding.counts[privileged] == coding.counts[other]:
        assert privileged < other
    assert coding.codes == {pid: int(cat == privileged) for pid, cat in raw.items()}


class TestEncodeProtected:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True),
           st.dictionaries(st.text(max_size=4), st.booleans(), min_size=2).filter(lambda d: len(set(d.values())) == 2))
    def test_majority_is_privileged_and_coded_1(self, categories, in_second):
        raw = {pid: categories[second] for pid, second in in_second.items()}
        check_majority_coding(encode_protected(raw, "site"), raw)

    @pytest.mark.parametrize("n", [40, 41, 399, 2000])
    def test_synthetic_coding_follows_the_majority_rule(self, n):
        cohort = generate_synthetic(n, 0.8, 3)
        coding = cohort.attribute_catalog["group"]
        category = {code: cat for cat, code in coding.mapping.items()}
        raw = {pid: category[code] for pid, code in coding.codes.items()}
        check_majority_coding(coding, raw)
        assert {w.participant_id for w in cohort.windows} == set(raw)

    def test_majority_rule(self):
        raw = {f"p{i}": ("A" if i < 120 else "B") for i in range(200)}
        coding = encode_protected(raw, "site")
        assert coding.mapping == {"A": 1, "B": 0}
        assert coding.counts == {"A": 120, "B": 80}
        assert coding.codes == {pid: int(cat == "A") for pid, cat in raw.items()}

    @pytest.mark.filterwarnings("error")
    def test_tie_breaks_lexicographically_without_a_warning(self):
        raw = {f"p{i}": ("B" if i % 2 else "A") for i in range(10)}
        coding = encode_protected(raw, "site")
        assert coding.mapping == {"A": 1, "B": 0}
        assert coding.counts == {"A": 5, "B": 5}

    def test_degenerate(self):
        with pytest.raises(ValueError, match=r"^'site' has a single category: \['A'\]$"):
            encode_protected({"p1": "A", "p2": "A"}, "site")

    def test_not_binary(self):
        with pytest.raises(ValueError, match="^'site' has 3 categories; coarsen to two first$"):
            encode_protected({"p1": "A", "p2": "B", "p3": "C"}, "site")


class TestSplit:
    def test_paper_sized_split(self):
        split = split_cohort(make_cohort(920), seed=1)
        assert len(split.train) == 690
        assert len(split.test) == 230

    def test_minimum_split(self):
        split = split_cohort(make_cohort(4), seed=1)
        assert len(split.train) == 3
        assert len(split.test) == 1

    def test_too_small(self):
        with pytest.raises(ValueError, match="^need at least 4 windows to split, got 3$"):
            split_cohort(make_cohort(3), seed=1)

    def test_determinism(self):
        cohort = make_cohort(50)
        a = split_cohort(cohort, seed=9)
        b = split_cohort(cohort, seed=9)
        assert [w.sample_id for w in a.train.windows] == [w.sample_id for w in b.train.windows]

    def test_multiset_preservation(self):
        cohort = make_cohort(41)
        split = split_cohort(cohort, seed=3)
        got = sorted(w.sample_id for w in split.train.windows + split.test.windows)
        assert got == sorted(w.sample_id for w in cohort.windows)
        assert not set(w.sample_id for w in split.train.windows) & set(
            w.sample_id for w in split.test.windows
        )

    def test_by_participant_keeps_participants_whole(self):
        cohort = make_cohort(70)
        split = split_cohort(cohort, seed=3, by_participant=True)
        train_p = {w.participant_id for w in split.train.windows}
        test_p = {w.participant_id for w in split.test.windows}
        assert not train_p & test_p

    @pytest.mark.parametrize("seed", range(10))
    def test_by_participant_split_keeps_both_groups_and_labels_in_each_part(self, seed):
        # prepare_split raises when a part lacks a group or a label; unstratified, 7 of these 10 seeds did
        split = pipeline.prepare_split(generate_synthetic(60, 0.8, 3), seed, by_participant=True, protected="group")
        assert {w.participant_id for w in split.train.windows}.isdisjoint(w.participant_id for w in split.test.windows)


class TestStandardize:
    def _tiny_split(self, train_cols, test_cols):
        def build(cols, prefix):
            windows = []
            for i, value in enumerate(cols):
                feats = np.full((24, 25), float(value))
                windows.append(LabeledWindow(f"{prefix}{i}", "p0", feats, 0))
            return Cohort(tuple(windows))

        return dataset.SplitCohort(train=build(train_cols, "tr"), test=build(test_cols, "te"))

    def test_two_point_column(self):
        out = standardize(self._tiny_split([1.0, 3.0], [2.0]))
        values = out.train.feature_tensor()
        assert np.allclose(np.unique(values), [-1.0, 1.0])
        # test value equal to the train mean maps to zero
        assert np.allclose(out.test.feature_tensor(), 0.0)

    def test_constant_column_maps_to_zero(self):
        out = standardize(self._tiny_split([5.0, 5.0, 5.0], [7.0]))
        assert np.allclose(out.train.feature_tensor(), 0.0)

    def test_train_statistics_normalized(self):
        cohort = make_cohort(60, seed=4)
        out = standardize(split_cohort(cohort, seed=2))
        stacked = out.train.feature_tensor().reshape(-1, 25)
        assert np.abs(stacked.mean(axis=0)).max() < 1e-9
        assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-9


class TestSynthetic:
    def test_unbiased_dir_near_one(self):
        for seed in range(10):
            cohort = generate_synthetic(2000, 0.0, seed)
            ratio = evaluate_predictions(cohort.labels(), groups=cohort.protected_values("group"))["dir"]
            assert abs(ratio - 1.0) <= 0.05

    def test_full_bias_dir_low(self):
        cohort = generate_synthetic(2000, 1.0, 0)
        ratio = evaluate_predictions(cohort.labels(), groups=cohort.protected_values("group"))["dir"]
        assert ratio <= 0.6

    def test_determinism_byte_identical(self):
        a = generate_synthetic(200, 0.5, 123)
        b = generate_synthetic(200, 0.5, 123)
        assert len(a) == len(b)
        assert a.attribute_catalog == b.attribute_catalog
        for wa, wb in zip(a.windows, b.windows):
            assert wa.sample_id == wb.sample_id
            assert wa.participant_id == wb.participant_id
            assert wa.anxiety == wb.anxiety
            assert wa.features.tobytes() == wb.features.tobytes()

    def test_bad_strength(self):
        with pytest.raises(dataset.OutOfRange, match=r"^bias_strength must be in \[0, 1\], got 1.5$"):
            generate_synthetic(100, 1.5, 0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_synthetic(39, 0.5, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_a_checkpoint_header(self, seed):
        with pytest.raises(dataset.OutOfRange, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            generate_synthetic(40, 0.5, seed)

    def test_widest_seed(self):
        cohort = generate_synthetic(40, 0.5, 2**64 - 1)
        assert len(cohort) == 40
        assert not np.array_equal(cohort.feature_tensor(), generate_synthetic(40, 0.5, 0).feature_tensor())

    def test_zero_strength_decorrelates_features(self):
        cohort = generate_synthetic(2000, 0.0, 7)
        feats = cohort.feature_tensor().mean(axis=1)
        groups = cohort.protected_values("group")
        prot_cols = [dataset.FEATURE_NAMES.index(c) for c in dataset.PROTECTED_SIGNAL_COLUMNS]
        gap = feats[groups == 1][:, prot_cols].mean() - feats[groups == 0][:, prot_cols].mean()
        assert abs(gap) < 0.1

    def test_protected_columns_shifted_when_biased(self):
        cohort = generate_synthetic(2000, 1.0, 7)
        feats = cohort.feature_tensor().mean(axis=1)
        groups = cohort.protected_values("group")
        prot_cols = [dataset.FEATURE_NAMES.index(c) for c in dataset.PROTECTED_SIGNAL_COLUMNS]
        gap = feats[groups == 1][:, prot_cols].mean() - feats[groups == 0][:, prot_cols].mean()
        assert gap > 1.0


class TestInterchange:
    def test_round_trip(self, tmp_path):
        cohort = generate_synthetic(50, 0.7, 5)
        write_windows(tmp_path / "w.csv", cohort)
        write_labels_csv(tmp_path / "l.csv", cohort)
        write_demographics_csv(tmp_path / "d.csv", cohort)
        write_catalog_json(tmp_path / "catalog.json", cohort)

        loaded = load_cohort(tmp_path / "w.csv", tmp_path / "l.csv", tmp_path / "d.csv", "group")
        assert len(loaded) == len(cohort)
        for wa, wb in zip(cohort.windows, loaded.windows):
            assert wa.sample_id == wb.sample_id
            assert wa.anxiety == wb.anxiety
            assert np.allclose(wa.features, wb.features)
        assert np.array_equal(loaded.protected_values("group"), cohort.protected_values("group"))
        assert loaded.attribute_catalog == cohort.attribute_catalog

    def test_missing_label_detected(self, tmp_path):
        cohort = generate_synthetic(40, 0.0, 1)
        write_windows(tmp_path / "w.csv", cohort)
        (tmp_path / "l.csv").write_text("sample_id,anxiety\ns000000,1\n")
        with pytest.raises(ValueError, match="no anxiety label"):
            load_cohort(tmp_path / "w.csv", tmp_path / "l.csv")

    def test_catalog_json_schema(self, tmp_path):
        import json

        cohort = generate_synthetic(40, 0.3, 2)
        write_catalog_json(tmp_path / "c.json", cohort)
        payload = json.loads((tmp_path / "c.json").read_text())
        assert payload["group"]["mapping"] == {"maj": 1, "min": 0}
        assert sum(payload["group"]["counts"].values()) == len(
            {w.participant_id for w in cohort.windows}
        )


# Ids and attribute names the CLI accepts: printable, without a comma or a quote.
NAMES = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"'), max_size=6)
# Every finite float64, with the subnormal, signed-zero and extreme values drawn often.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestInterchangeProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_windows_round_trip_keeps_ids_and_float_bits(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 3))
        sample_ids = data.draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
        participant_ids = data.draw(st.lists(NAMES, min_size=n, max_size=n))
        features = data.draw(hnp.arrays(np.float64, (n, 24, 25), elements=FLOATS))
        path = tmp_path_factory.mktemp("windows") / "w.csv"
        write_windows_csv(path, sample_ids, participant_ids, features)
        got_samples, got_participants, got_features = read_windows_csv(path)
        assert (got_samples, got_participants) == (sample_ids, participant_ids)
        assert got_features.shape == features.shape
        assert np.array_equal(got_features.view(np.uint64), features.view(np.uint64))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_participant_codes_round_trip_and_survive_the_split(self, tmp_path_factory, data):
        attribute = data.draw(NAMES.filter(lambda name: name != "participant_id"))
        participants = data.draw(st.lists(NAMES, min_size=4, max_size=6, unique=True))
        categories = data.draw(st.lists(NAMES, min_size=2, max_size=2, unique=True))
        raw = {pid: categories[i % 2] if i < 2 else data.draw(st.sampled_from(categories))
               for i, pid in enumerate(participants)}
        coding = encode_protected(raw, attribute)
        # 1-30 windows per participant, interleaved; every participant has one, so the demographics list them all
        sizes = data.draw(st.lists(st.integers(1, 30), min_size=len(participants), max_size=len(participants)))
        owners = data.draw(st.permutations([pid for pid, size in zip(participants, sizes) for _ in range(size)]))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(owners), max_size=len(owners)))
        cohort = Cohort(tuple(LabeledWindow(f"s{i}", pid, np.zeros((24, 25)), y)
                              for i, (pid, y) in enumerate(zip(owners, labels))), {attribute: coding})
        folder = tmp_path_factory.mktemp("cohort")
        write_windows(folder / "w.csv", cohort)
        write_labels_csv(folder / "l.csv", cohort)
        write_demographics_csv(folder / "d.csv", cohort)
        loaded = load_cohort(folder / "w.csv", folder / "l.csv", folder / "d.csv", attribute)
        assert [(w.sample_id, w.participant_id, w.anxiety) for w in loaded.windows] == \
            [(w.sample_id, w.participant_id, w.anxiety) for w in cohort.windows]
        got = loaded.attribute_catalog[attribute]
        assert (got.mapping, got.counts, got.codes) == (coding.mapping, coding.counts, coding.codes)
        code_of = {pid: coding.mapping[category] for pid, category in raw.items()}
        seed = data.draw(st.integers(0, 2**32))
        for by_participant in (False, True):
            try:
                split = pipeline.prepare_split(loaded, seed, by_participant=by_participant, protected=attribute)
            except ValueError as exc:  # a part lacks a label or a group: check the split it refused
                assert str(exc).endswith("train and test each need both values of each"), exc
                split = split_cohort(loaded, seed, by_participant=by_participant)
            for part in (split.train, split.test):
                assert part.protected_values(attribute).tolist() == [code_of[w.participant_id] for w in part.windows]

    @given(st.lists(NAMES, min_size=1, max_size=8, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_predictions_round_trip(self, tmp_path_factory, sample_ids, data):
        preds = data.draw(st.lists(st.integers(0, 1), min_size=len(sample_ids), max_size=len(sample_ids)))
        # the reader takes a probability only in [0, 1]
        probs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(sample_ids), max_size=len(sample_ids)))
        path = tmp_path_factory.mktemp("predictions") / "p.csv"
        write_predictions_csv(path, sample_ids, preds, probs)
        assert read_outcomes_csv(path, PREDICTIONS_HEADER, "prediction") == dict(zip(sample_ids, preds))


CHUNK = dataset.WRITE_CHUNK_WINDOWS


@functools.cache
def _codec_case(n):
    """(sample ids, participant ids, features, reference file bytes) of n windows, values of every magnitude."""
    rng = np.random.default_rng(n)
    features = rng.normal(size=(n, 24, 25)) * 10.0 ** rng.integers(-5, 17, size=(n, 24, 25))
    sample_ids = [f"s{i:06d}" for i in range(n)]
    participant_ids = [f"p{i // 7:04d}" for i in range(n)]
    return sample_ids, participant_ids, features, reference_windows_csv_bytes(sample_ids, participant_ids, features)


class TestWindowsWriter:
    @pytest.mark.parametrize("cpus", [{0, 1, 2}, {0}], ids=["pool", "in-process"])
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2000])
    def test_bytes_equal_per_row_reference(self, tmp_path, monkeypatch, n, cpus):
        sample_ids, participant_ids, features, want = _codec_case(n)
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a: contexts.append(a) or get_context(*a))
        write_windows_csv(tmp_path / "w.csv", sample_ids, participant_ids, features)
        assert (tmp_path / "w.csv").read_bytes() == want
        # a pool only when there are two chunks and two CPUs to run them on
        assert contexts == ([("fork",)] if len(cpus) > 1 and n > CHUNK else [])
        assert multiprocessing.active_children() == []

    def test_failed_worker_raises_and_writes_nothing(self, tmp_path, monkeypatch, capfd):
        sample_ids, participant_ids, features, _ = _codec_case(2 * CHUNK + 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def fail(chunk):
            raise RuntimeError("worker failure")

        monkeypatch.setattr(dataset, "_format_windows", fail)  # the forked workers inherit it
        with pytest.raises(OSError, match="2 of 2 formatting workers failed"):
            write_windows_csv(tmp_path / "w.csv", sample_ids, participant_ids, features)
        assert "worker failure" in capfd.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


# the end of the error on a row out of the place the writer's layout gives it
LAYOUT = " belongs; each sample's 24 rows come together, in step order"

# (case, line, error after the line) of each file that breaks the writer's layout
LAYOUT_CASES = [
    ("swapped-steps", 5, "step 4 of sample 's000000' where step 3 of sample 's000000'" + LAYOUT),
    ("interleaved-samples", 7, "step 0 of sample 's000001' where step 5 of sample 's000000'" + LAYOUT),
    ("sample-cut-short-mid-file", 12, "step 11 of sample 's000000' where step 10 of sample 's000000'" + LAYOUT),
    ("sample-repeated-later", 74, "step 0 of sample 's000000' where step 0 of a new sample" + LAYOUT),
    ("step-of-24", 7, "step 24 of sample 's000000' where step 5 of sample 's000000'" + LAYOUT),
    # a float64 reads this step as 2**53: the message echoes the text
    ("step-above-2**53", 7, "step 9007199254740993 of sample 's000000' where step 5 of sample 's000000'" + LAYOUT),
    ("participant-change", 32, "sample 's000001' names participant 'other', but its first row names 'p0000'"),
    ("last-sample-cut-short", None, "the last sample, 's000002', has 23 of its 24 rows"),
]


class TestWindowsReader:
    def _rows(self, n=3):
        sample_ids, participant_ids, features, text = _codec_case(n)
        return text.decode().splitlines()

    def _assert_equal_to_scan(self, path, fast=True):
        """read_windows_csv's features, or its error, are those of the row scan, bit for bit."""
        got, want, scanned = fast_and_scan(read_windows_csv, path)
        assert got == want
        # numpy's parser served it, or left it to the scan
        assert scanned != fast
        if isinstance(got, str):
            return got
        return read_windows_csv(path)

    def test_canonical_file(self, tmp_path):
        sample_ids, participant_ids, features, text = _codec_case(CHUNK + 1)
        (tmp_path / "w.csv").write_bytes(text)
        got = self._assert_equal_to_scan(tmp_path / "w.csv")
        assert (got[0], got[1]) == (sample_ids, participant_ids)
        assert np.array_equal(got[2].view(np.uint64), features.view(np.uint64))

    @pytest.mark.parametrize("case,line,message", LAYOUT_CASES, ids=[case for case, _, _ in LAYOUT_CASES])
    def test_rows_out_of_the_writers_layout_are_refused(self, tmp_path, capsys, case, line, message):
        header, *rows = self._rows(3)
        if case == "swapped-steps":
            rows[3], rows[4] = rows[4], rows[3]
        elif case == "interleaved-samples":
            rows.insert(5, rows.pop(24))
        elif case == "sample-cut-short-mid-file":
            del rows[10]
        elif case == "sample-repeated-later":
            rows += rows[:24]
        elif case == "step-of-24":
            rows[5] = rows[5].replace(",5,", ",24,", 1)
        elif case == "step-above-2**53":
            rows[5] = rows[5].replace(",5,", f",{2**53 + 1},", 1)
        elif case == "participant-change":
            rows[30] = rows[30].replace(",p0000,", ",other,")
        else:
            del rows[-1]
        path = tmp_path / "w.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        error = f"{path}: {message}" if line is None else f"{path}, line {line}: {message}"
        assert self._assert_equal_to_scan(path) == error
        labels, demographics, out = tmp_path / "l.csv", tmp_path / "d.csv", tmp_path / "out"
        labels.write_text("sample_id,anxiety\ns000000,0\ns000001,1\ns000002,0\n")
        demographics.write_text("participant_id,group\np0000,a\nother,b\n")
        assert main(["audit", "--windows", str(path), "--labels", str(labels), "--demo", str(demographics),
                     "--protected", "group", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_step_past_the_float_range_is_refused_naming_its_line(self, tmp_path):
        header, *rows = self._rows(1)
        rows[2] = rows[2].replace(",2,", "," + "9" * 400 + ",", 1)
        path = tmp_path / "w.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        # the step converter's int does not fit a float64: numpy's parser refuses it, and the scan names the line
        assert self._assert_equal_to_scan(path, fast=False) == f"{path}, line 4: int too large to convert to float"

    def test_sample_whose_rows_name_two_participants_is_refused(self, tmp_path):
        header, *rows = self._rows(2)
        rows[0] = rows[0].replace(",p0000,", ",other,")
        (tmp_path / "w.csv").write_text("\n".join([header, *rows]) + "\n")
        assert self._assert_equal_to_scan(tmp_path / "w.csv") == (
            f"{tmp_path / 'w.csv'}, line 3: sample 's000000' names participant 'p0000', but its first row names 'other'")

    def test_crlf_blank_lines_and_quotes(self, tmp_path):
        header, *rows = self._rows(2)
        rows = [",".join(f'"{field}"' if k % 3 == 0 else field for k, field in enumerate(row.split(",")))
                for row in rows]
        (tmp_path / "w.csv").write_bytes(("\r\n".join([header, "", *rows, ""]) + "\r\n").encode())
        # a quoted field may span lines, which numpy's parser reads otherwise, so quotes go to the scan
        self._assert_equal_to_scan(tmp_path / "w.csv", fast=False)

    @pytest.mark.parametrize("text,read_as", DIVERGENT_VALUES)
    def test_value_numpy_once_read_otherwise_is_read_as_the_scan_reads_it(self, tmp_path, text, read_as):
        header, *rows = self._rows(1)
        fields = rows[2].split(",")
        name, fields[7] = dataset.WINDOWS_HEADER[7], text
        rows[2] = ",".join(fields)
        path = tmp_path / "w.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        got = self._assert_equal_to_scan(path, fast=False)
        if isinstance(read_as, float):
            assert got[2][0, 2, 4] == read_as
        else:
            end = f"{name} is {text!r}, not a finite number" if read_as == NOT_A_NUMBER else read_as
            assert got == f"{path}, line 4: {end}"

    def test_padded_value_is_refused_whatever_follows(self, tmp_path):
        # numpy's parser once read the padded value, unless a later bad one sent the file to the scan
        header, *rows = self._rows(34)
        fields = rows[2].split(",")
        fields[3] = "\x1c" + fields[3]
        rows[2] = ",".join(fields)
        rows[799] = rows[799].rsplit(",", 1)[0] + ",zz"
        path = tmp_path / "w.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        got = self._assert_equal_to_scan(path, fast=False)
        assert got.startswith(f"{path}, line 4: {dataset.WINDOWS_HEADER[3]} is '\\x1c")

    def test_values_only_float_accepts_go_to_the_scan(self, tmp_path):
        header, *rows = self._rows(1)
        fields = rows[4].split(",")
        fields[7] = "1_000"
        rows[4] = ",".join(fields)
        (tmp_path / "w.csv").write_text("\n".join([header, *rows]) + "\n")
        got = self._assert_equal_to_scan(tmp_path / "w.csv", fast=False)
        assert got[2][0, 4, 4] == 1000.0

    def test_plain_text_with_a_compression_suffix_goes_to_the_scan(self, tmp_path):
        (tmp_path / "w.csv.xz").write_bytes(_codec_case(2)[3])
        self._assert_equal_to_scan(tmp_path / "w.csv.xz", fast=False)

    def test_header_only(self, tmp_path):
        (tmp_path / "w.csv").write_text(",".join(dataset.WINDOWS_HEADER) + "\n\n")
        got = self._assert_equal_to_scan(tmp_path / "w.csv")
        assert got[2].shape == (0, 24, 25)


class TestSyntheticReference:
    @pytest.mark.parametrize("n,bias,seed,attribute", [
        (40, 0.0, 1, "group"), (57, 0.5, 3, "sex"), (200, 1.0, 7, "group"), (1033, 0.3, 11, "age_band"),
    ])
    def test_equals_per_window_loop(self, n, bias, seed, attribute):
        got = generate_synthetic(n, bias, seed, attribute)
        want = reference_generate_synthetic(n, bias, seed, attribute)
        assert got.attribute_catalog == want.attribute_catalog
        assert [(w.sample_id, w.participant_id, w.anxiety) for w in got.windows] == \
            [(w.sample_id, w.participant_id, w.anxiety) for w in want.windows]
        assert np.array_equal(got.feature_tensor().view(np.uint64), want.feature_tensor().view(np.uint64))


class TestRequestedAttribute:
    @pytest.fixture
    def folder(self, tmp_path):
        cohort = generate_synthetic(200, 0.8, 1)
        write_windows(tmp_path / "w.csv", cohort)
        write_labels_csv(tmp_path / "l.csv", cohort)
        write_demographics_csv(tmp_path / "d.csv", cohort)
        lines = (tmp_path / "d.csv").read_text().splitlines()
        ages = [lines[0] + ",age"] + [f"{line},{20 + i % 10}" for i, line in enumerate(lines[1:])]
        (tmp_path / "d.csv").write_text("\n".join(ages) + "\n")
        return tmp_path

    def test_only_the_requested_column_is_encoded(self, folder):
        loaded = load_cohort(folder / "w.csv", folder / "l.csv", folder / "d.csv", "group")
        assert list(loaded.attribute_catalog) == ["group"]

    def test_no_column_is_encoded_without_a_request(self, folder):
        loaded = load_cohort(folder / "w.csv", folder / "l.csv", folder / "d.csv")
        assert loaded.attribute_catalog == {}

    def test_requested_column_that_is_not_binary_names_file_and_attribute(self, folder):
        with pytest.raises(ValueError) as err:
            load_cohort(folder / "w.csv", folder / "l.csv", folder / "d.csv", "age")
        assert str(err.value) == f"{folder / 'd.csv'}: 'age' has 10 categories; coarsen to two first"
