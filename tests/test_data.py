import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_dataset, ref_group_deviation
from slicepick import (
    DatasetIndex,
    InvalidSpecError,
    SliceRecord,
    SynthSpec,
    UndefinedStatisticError,
    generate_synthetic,
    group_deviation,
    import_embeddings,
    load_dataset,
    save_dataset,
)
from slicepick.gcle import write_gcle


class TestDatasetIndex:
    def test_noncontiguous_slice_index_rejected(self):
        slices = [
            SliceRecord(0, 0, 0, 0, np.zeros(2)),
            SliceRecord(1, 0, 0, 2, np.zeros(2)),
        ]
        with pytest.raises(InvalidSpecError):
            DatasetIndex(slices, 1, 2)

    def test_volume_with_two_patients_rejected(self):
        slices = [
            SliceRecord(0, 0, 0, 0, np.zeros(2)),
            SliceRecord(1, 1, 0, 1, np.zeros(2)),
        ]
        with pytest.raises(InvalidSpecError):
            DatasetIndex(slices, 1, 2)

    def test_ragged_pixels_rejected(self):
        slices = [
            SliceRecord(0, 0, 0, 0, np.zeros(2)),
            SliceRecord(1, 0, 0, 1, np.zeros(3)),
        ]
        with pytest.raises(InvalidSpecError):
            DatasetIndex(slices, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError):
            DatasetIndex([], 1, 2)


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


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path, tiny_ds):
        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        ds2, labels2 = load_dataset(tmp_path / "d")
        assert np.array_equal(labels, labels2)
        # pixels pass through float32 storage
        assert np.allclose(ds.pixel_matrix(), ds2.pixel_matrix(), atol=1e-6)
        assert ds2.volume_slices == ds.volume_slices

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

    def test_invalid_json(self, tmp_path, tiny_ds):
        from slicepick import FormatError

        ds, labels = tiny_ds
        save_dataset(ds, labels, tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text("{")
        with pytest.raises(FormatError, match="meta.json"):
            load_dataset(tmp_path / "d")


class TestImportEmbeddings:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)).astype(np.float32)
        meta = [
            {"slice_id": i, "patient_id": 0, "volume_id": 0, "slice_index": i}
            for i in range(3)
        ]
        write_gcle(tmp_path / "e.gcle", m, meta)
        ds, matrix = import_embeddings(tmp_path / "e.gcle")
        assert np.array_equal(matrix, m)
        assert ds.n == 3
        assert np.allclose(ds.pixel_matrix(), m.astype(np.float64))
