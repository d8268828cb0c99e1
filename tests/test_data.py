import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_dataset, ref_group_deviation
from slicepick import (
    DatasetIndex,
    InvalidSpecError,
    SynthSpec,
    UndefinedStatisticError,
    generate_synthetic,
    group_deviation,
    load_dataset,
    save_dataset,
)
from slicepick.coreset import SelectionState


def identity_rows(*records):
    """The int64 identity table of (slice_id, patient_id, volume_id,
    slice_index) tuples."""
    return np.array(records, dtype=np.int64)


class TestDatasetIndex:
    def test_noncontiguous_slice_index_rejected(self):
        rows = identity_rows((0, 0, 0, 0), (1, 0, 0, 2))
        with pytest.raises(InvalidSpecError):
            DatasetIndex(rows, np.zeros((2, 2)), 1, 2)

    def test_volume_with_two_patients_rejected(self):
        rows = identity_rows((0, 0, 0, 0), (1, 1, 0, 1))
        with pytest.raises(InvalidSpecError):
            DatasetIndex(rows, np.zeros((2, 2)), 1, 2)

    def test_repeated_slice_id_names_its_first_repeat(self):
        # row 2 repeats slice 5 and also puts volume 0 on a second patient:
        # the repeat is named, as it is checked first
        rows = identity_rows((5, 0, 0, 0), (6, 0, 0, 1), (5, 1, 0, 2), (6, 1, 1, 0))
        with pytest.raises(InvalidSpecError, match=r"^slices\[2\]: duplicate slice_id 5$"):
            DatasetIndex(rows, np.zeros((4, 2)), 1, 2)

    def test_depth_gap_names_the_volume_that_appears_first(self):
        # volumes 3 and 1 both have gaps; volume 1 sorts first, volume 3
        # appears first in the table
        rows = identity_rows((0, 1, 3, 0), (1, 1, 3, 2), (2, 0, 1, 3), (3, 0, 1, 0))
        with pytest.raises(
            InvalidSpecError, match=r"^volume 3 slice_index values \[0, 2\] are not contiguous"
        ):
            DatasetIndex(rows, np.zeros((4, 2)), 1, 2)

    def test_matrix_of_wrong_shape_rejected(self):
        rows = identity_rows((0, 0, 0, 0), (1, 0, 0, 1))
        for shape in [(2, 3), (3, 2), (1, 2), (4,), (2, 1, 2)]:
            with pytest.raises(InvalidSpecError, match=rf"shape \({shape[0]},"):
                DatasetIndex(rows, np.zeros(shape), 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError, match="at least one slice"):
            DatasetIndex(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 2)), 1, 2)

    @pytest.mark.parametrize("ids", [
        [dict(slice_id=0, patient_id=0, volume_id=0, slice_index=0)],
        np.zeros((1, 3), dtype=np.int64),
        np.zeros((1, 5), dtype=np.int64),
        np.zeros(4, dtype=np.int64),
        np.zeros((1, 4)),
        np.zeros((1, 4), dtype=bool),
        [],
    ], ids=["records", "3-columns", "5-columns", "1-D", "float", "bool", "empty-list"])
    def test_ids_other_than_an_integer_table_rejected(self, ids):
        with pytest.raises(InvalidSpecError, match=r"expected an \(n, 4\) integer array"):
            DatasetIndex(ids, np.zeros((1, 2)), 1, 2)

    def test_ids_copied_as_read_only_int64(self):
        ids = identity_rows((5, 0, 0, 0), (6, 0, 0, 1)).astype(np.int32)
        ds = DatasetIndex(ids, np.zeros((2, 2)), 1, 2)
        assert ds.ids.dtype == np.int64 and not ds.ids.flags.writeable
        assert np.array_equal(ds.ids, ids) and not np.shares_memory(ds.ids, ids)
        assert ids.flags.writeable


class TestGenerateSynthetic:
    def test_all_scales_zero_gives_identical_slices(self):
        spec = SynthSpec(
            n_patients=2, volumes_per_patient=2, slices_per_volume=3, h=2, w=2,
            patient_scale=0, volume_scale=0, adjacent_scale=0, noise_scale=0, seed=1,
        )
        ds, _ = generate_synthetic(spec)
        X = ds.pixel_matrix()
        assert np.all(X == X[0])

    def test_deterministic_bit_identical(self):
        spec = SynthSpec(n_patients=2, volumes_per_patient=1, slices_per_volume=3, seed=7)
        ds1, lab1 = generate_synthetic(spec)
        ds2, lab2 = generate_synthetic(spec)
        assert np.array_equal(ds1.pixel_matrix(), ds2.pixel_matrix())
        assert np.array_equal(lab1, lab2)

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_synthetic(
                SynthSpec(n_patients=0, volumes_per_patient=1, slices_per_volume=1)
            )
        with pytest.raises(InvalidSpecError):
            generate_synthetic(
                SynthSpec(n_patients=1, volumes_per_patient=1, slices_per_volume=2,
                          noise_scale=-0.1)
            )

    def test_labels_cover_classes(self):
        spec = SynthSpec(n_patients=5, volumes_per_patient=2, slices_per_volume=6,
                         class_count=4, seed=3)
        _, labels = generate_synthetic(spec)
        assert set(labels) == {0, 1, 2, 3}

    def test_deviation_ordering_over_seeds(self):
        # adjacent variation << volume offsets << patient mixing
        for seed in range(5):
            spec = SynthSpec(
                n_patients=4, volumes_per_patient=2, slices_per_volume=8, h=4, w=4,
                patient_scale=0.4, volume_scale=1.0, adjacent_scale=0.3,
                noise_scale=0.05, seed=seed,
            )
            ds, _ = generate_synthetic(spec)
            d_all = group_deviation(ds, "dataset")
            d_vol = group_deviation(ds, "volume")
            d_adj = group_deviation(ds, "adjacent")
            assert d_all > d_vol > d_adj


class TestGroupDeviation:
    def test_single_unit_pair(self):
        ds = make_dataset([(0, 0, 2)], [[0.0, 0.0], [1.0, 1.0]], h=1, w=2)
        assert group_deviation(ds, "dataset") == pytest.approx(1.0, abs=1e-15)

    def test_identical_slices_zero_everywhere(self):
        ds = make_dataset([(0, 0, 2), (1, 1, 2)], [[0.5]] * 4, h=1, w=1)
        for grouping in ("dataset", "patient", "volume", "adjacent"):
            assert group_deviation(ds, grouping) == 0.0

    def test_three_scalar_slices(self):
        ds = make_dataset([(0, 0, 3)], [[0.0], [0.5], [1.0]], h=1, w=1)
        assert group_deviation(ds, "dataset") == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_undefined_statistic(self):
        ds = make_dataset([(0, 0, 1), (1, 1, 1)], [[0.0], [1.0]], h=1, w=1)
        with pytest.raises(UndefinedStatisticError):
            group_deviation(ds, "adjacent")

    def test_unknown_grouping(self):
        ds = make_dataset([(0, 0, 2)], [[0.0], [1.0]], h=1, w=1)
        with pytest.raises(ValueError):
            group_deviation(ds, "bogus")

    def test_dataset_vs_adjacent_without_drift(self):
        # with no drift and no noise, adjacent pairs are identical while
        # distinct volume offsets separate the dataset at large
        spec = SynthSpec(
            n_patients=3, volumes_per_patient=1, slices_per_volume=4, h=2, w=2,
            patient_scale=0.5, volume_scale=1.0, adjacent_scale=0.0,
            noise_scale=0.0, seed=11,
        )
        ds, _ = generate_synthetic(spec)
        assert group_deviation(ds, "adjacent") == pytest.approx(0.0, abs=1e-15)
        assert group_deviation(ds, "dataset") > group_deviation(ds, "adjacent")

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(1, 3), st.integers(1, 2), st.integers(1, 4),
        st.integers(0, 10 ** 6),
    )
    def test_matches_bruteforce(self, n_patients, vpp, spv, seed):
        spec = SynthSpec(
            n_patients=n_patients, volumes_per_patient=vpp, slices_per_volume=spv,
            h=2, w=3, seed=seed,
        )
        ds, _ = generate_synthetic(spec)
        for grouping in ("dataset", "patient", "volume", "adjacent"):
            expected = ref_group_deviation(ds, grouping)
            if expected is None:
                with pytest.raises(UndefinedStatisticError):
                    group_deviation(ds, grouping)
            else:
                assert group_deviation(ds, grouping) == pytest.approx(
                    expected, abs=1e-12
                )


class TestPixelMatrix:
    """One read-only float32 matrix per dataset, the values ``data.bin``
    holds: the constructor takes it over, ``pixel_matrix`` returns it
    without a copy, and a selection state over it keeps it."""

    def assert_one_matrix(self, ds):
        X = ds.pixel_matrix()
        assert ds.pixel_matrix() is X and X.dtype == np.float32
        assert X.shape == (ds.n, ds.h * ds.w) and X.flags.c_contiguous
        assert not X.flags.writeable
        state = SelectionState(X)
        assert state.emb is X and state.emb32 is X

    def test_generated_and_loaded(self, tmp_path):
        ds, labels = generate_synthetic(SynthSpec(2, 2, 3, h=2, w=3, seed=4))
        self.assert_one_matrix(ds)
        save_dataset(ds, labels, tmp_path / "d")
        self.assert_one_matrix(load_dataset(tmp_path / "d")[0])

    def test_takes_over_a_float32_matrix(self):
        X = np.arange(6.0, dtype=np.float32).reshape(3, 2)
        ds = DatasetIndex(identity_rows((0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 1, 0)), X, 1, 2)
        assert ds.pixel_matrix() is X
        assert not X.flags.writeable
        self.assert_one_matrix(ds)

    def test_other_input_is_rounded_to_float32(self):
        rows = identity_rows((0, 0, 0, 0), (1, 0, 0, 1))
        X = np.array([[1, 2], [3, 4]]) + np.array([0.1, 1e-9])
        ds = DatasetIndex(rows, X, 1, 2)
        self.assert_one_matrix(ds)
        assert ds.pixel_matrix().tobytes() == X.astype(np.float32).tobytes()

    def test_generator_equals_its_file_round_trip(self, tmp_path):
        # the in-memory dataset is the one gen-data writes and the CLI loads
        spec = SynthSpec(3, 2, 4, h=3, w=5, seed=9)
        ds, labels = generate_synthetic(spec)
        save_dataset(ds, labels, tmp_path / "d", spec)
        loaded, loaded_labels = load_dataset(tmp_path / "d")
        assert loaded.pixel_matrix().tobytes() == ds.pixel_matrix().tobytes()
        assert np.array_equal(loaded.ids, ds.ids) and np.array_equal(loaded_labels, labels)


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path, tiny_ds):
        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        ds2, labels2 = load_dataset(tmp_path / "d")
        assert np.array_equal(labels, labels2)
        assert ds.pixel_matrix().tobytes() == ds2.pixel_matrix().tobytes()
        assert np.array_equal(ds2.ids, ds.ids)

    def test_regeneration_is_byte_identical(self, tmp_path, tiny_ds):
        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "a")
        save_dataset(ds, labels, tmp_path / "b")
        for name in ("meta.json", "data.bin", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestDatasetDirectoryErrors:
    def test_truncated_data_bin(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        raw = (tmp_path / "d" / "data.bin").read_bytes()
        (tmp_path / "d" / "data.bin").write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")

    def test_label_count_mismatch(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        (tmp_path / "d" / "labels.json").write_text("[1, 2]")
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("bad", [1.5, True, "1", None, [1]])
    def test_non_integer_label(self, tmp_path, tiny_ds, bad):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        values = [int(x) for x in labels]
        values[3] = bad
        labels_path = tmp_path / "d" / "labels.json"
        labels_path.write_text(json.dumps(values))
        with pytest.raises(FormatError) as exc:
            load_dataset(tmp_path / "d")
        assert str(exc.value) == (
            f"{labels_path}: index 3 must be an integer, got {bad!r}"
        )

    def test_label_beyond_int64(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        values = [int(x) for x in labels]
        values[0] = 2 ** 63
        (tmp_path / "d" / "labels.json").write_text(json.dumps(values))
        with pytest.raises(FormatError, match="index 0 does not fit in int64"):
            load_dataset(tmp_path / "d")

    def test_labels_not_a_list(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        (tmp_path / "d" / "labels.json").write_text('{"0": 1}')
        with pytest.raises(FormatError, match="labels.json: top level"):
            load_dataset(tmp_path / "d")

    def test_non_finite_pixels(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        raw = bytearray((tmp_path / "d" / "data.bin").read_bytes())
        raw[0:4] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / "d" / "data.bin").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")


class TestDatasetMetaErrors:
    def rewrite_meta(self, tmp_path, tiny_ds, edit):
        import json

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        meta_path = tmp_path / "d" / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        return meta_path

    @pytest.mark.parametrize("key", ["slices", "h", "w"])
    def test_missing_top_level_key(self, tmp_path, tiny_ds, key):
        from slicepick import FormatError

        meta_path = self.rewrite_meta(tmp_path, tiny_ds, lambda m: m.pop(key))
        with pytest.raises(FormatError) as exc:
            load_dataset(tmp_path / "d")
        assert str(meta_path) in str(exc.value) and f"'{key}'" in str(exc.value)

    @pytest.mark.parametrize("key", ["slice_id", "patient_id", "volume_id", "slice_index"])
    def test_missing_record_key(self, tmp_path, tiny_ds, key):
        from slicepick import FormatError

        meta_path = self.rewrite_meta(tmp_path, tiny_ds, lambda m: m["slices"][1].pop(key))
        with pytest.raises(FormatError) as exc:
            load_dataset(tmp_path / "d")
        msg = str(exc.value)
        assert str(meta_path) in msg and "slices[1]" in msg and f"'{key}'" in msg

    def test_non_positive_size(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        def edit(meta):
            meta["h"] = 0

        self.rewrite_meta(tmp_path, tiny_ds, edit)
        with pytest.raises(FormatError, match="'h' and 'w' must be >= 1"):
            load_dataset(tmp_path / "d")

    def test_non_integer_field(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        def edit(meta):
            meta["slices"][0]["volume_id"] = "v0"

        self.rewrite_meta(tmp_path, tiny_ds, edit)
        with pytest.raises(FormatError, match=r"slices\[0\]\.volume_id"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_format_version_must_be_the_integer_one(self, tmp_path, tiny_ds, version):
        from slicepick import FormatError

        meta_path = self.rewrite_meta(
            tmp_path, tiny_ds, lambda m: m.__setitem__("format_version", version)
        )
        with pytest.raises(FormatError) as exc:
            load_dataset(tmp_path / "d")
        rule = ("unsupported 'format_version' 2, expected 1" if version == 2
                else f"'format_version' must be an integer, got {version!r}")
        assert str(exc.value) == f"{meta_path}: {rule}"

    def test_invalid_json(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text("{")
        with pytest.raises(FormatError, match="meta.json"):
            load_dataset(tmp_path / "d")
