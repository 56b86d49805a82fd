import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdist.errors import (
    DimensionMismatch,
    DomainError,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    ParseError,
    RaggedRows,
    ZeroMass,
)
from latdist.ingest import (
    VectorDataset,
    load_dataset,
    recommend_ktop,
    top_mass_curve,
)
from latdist.prob import ProbVector


def make_dataset(rows, label="test"):
    return VectorDataset(np.stack([ProbVector(r, normalize=True).values for r in rows]), label)


def write_rows(path, rows, fmt):
    """One row per line, as JSON arrays (fmt "jsonl") or comma-separated; ints stay ints."""
    if fmt == "jsonl":
        lines = (json.dumps(list(r)) for r in rows)
    else:
        lines = (",".join(map(repr, r)) for r in rows)
    path.write_text("".join(line + "\n" for line in lines))


class TestLoading:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('[0.2, 0.3, 0.5]\n[0.1, 0.1, 0.8]\n')
        ds = load_dataset(path)
        assert len(ds) == 2 and ds.k == 3
        assert np.allclose(ds.matrix[0], [0.2, 0.3, 0.5])

    def test_delimited_commas_and_whitespace(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.2,0.3,0.5\n0.1,0.1,0.8\n")
        assert len(load_dataset(path)) == 2
        path2 = tmp_path / "data.txt"
        path2.write_text("0.2 0.3 0.5\n0.1 0.1 0.8\n")
        assert load_dataset(path2).k == 3

    def test_sniffs_format_without_extension(self, tmp_path):
        path = tmp_path / "data"
        path.write_text("[0.5, 0.5]\n")
        assert load_dataset(path).k == 2

    def test_rows_renormalized(self, tmp_path):
        path = tmp_path / "softmax.csv"
        path.write_text("0.2001,0.3001,0.5001\n")
        ds = load_dataset(path)
        assert ds.matrix[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.2,0.3,0.5\n")
        with pytest.raises(RaggedRows):
            load_dataset(path)

    def test_negative_entry(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6,-0.1\n")
        with pytest.raises(NegativeEntry):
            load_dataset(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,oops\n")
        with pytest.raises(ParseError):
            load_dataset(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        with pytest.raises(ParseError):
            load_dataset(empty)

    @pytest.mark.parametrize("row, shown", [
        ('["0.5", "0.5"]', '"0.5"'),
        ("[true, false]", "true"),
        ("[0.5, 0.5, {}]", "{}"),
        ('[0.5, "x"]', '"x"'),
        ("[0.5, null]", "null"),
        ("[0.5, [0.5]]", "[0.5]"),
    ], ids=["strings", "bools", "object", "string", "null", "nested"])
    def test_json_entry_that_is_not_a_number(self, tmp_path, row, shown):
        # Strings and bools used to load as numbers, an object raised a
        # TypeError, and a string's error named no line.
        path = tmp_path / "bad.jsonl"
        path.write_text(f"[0.5, 0.5]\n{row}\n")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:2: expected numbers, got {shown}"

    def test_json_integers_are_numbers(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        path.write_text("[1, 3]\n[0.5, 1]\n")
        assert load_dataset(path).matrix.tolist() == [[0.25, 0.75], [1 / 3, 2 / 3]]

    @pytest.mark.parametrize("fmt", ["jsonl", "delimited"])
    def test_save_load_roundtrip(self, tmp_path, fmt):
        # Values survive up to one renormalization ulp: rows whose stored
        # float sum is not exactly 1.0 get divided by (1 +- 1e-16) on load.
        rng = np.random.default_rng(60)
        ds = make_dataset(rng.dirichlet(np.ones(6), size=500))
        path = tmp_path / ("roundtrip.jsonl" if fmt == "jsonl" else "roundtrip.csv")
        write_rows(path, ds.matrix.tolist(), fmt)
        back = load_dataset(path)
        assert back.matrix.shape == ds.matrix.shape
        np.testing.assert_allclose(back.matrix, ds.matrix, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "name, text, error, line, message",
        [
            ("parse.jsonl", '# header\n\n[0.5, 0.5]\n[0.5, "x"]\n', ParseError, 4,
             'expected numbers, got "x"'),
            ("ragged.csv", "# header\n0.5,0.5\n\n0.2,0.3,0.5\n", RaggedRows, 4,
             "rows have differing lengths"),
            ("negative.csv", "0.5,0.5\n\n  # note\n0.5,-0.5\n", NegativeEntry, 4,
             "negative entries in array([ 0.5, -0.5])"),
            ("nan.csv", "\n0.5,0.5\nnan,1\n", NonFiniteEntry, 3,
             "entries must be finite with a finite sum, got array([nan,  1.])"),
            ("huge.jsonl", "[0.5, 0.5]\n\n[1" + "0" * 400 + ", 1]\n", NonFiniteEntry, 3,
             "entries must be finite; an integer overflows a float"),
            ("zero.csv", "# header\n0,0\n", ZeroMass, 2, "entries sum to zero"),
            ("single.csv", "\n\n1.0\n", DimensionMismatch, 3,
             "need a 1-D vector with at least 2 entries, got shape (1,)"),
            # Precedence: a parse error on any line, then ragged rows, then
            # the first row that is not a probability vector.
            ("late.jsonl", '[0.5, 0.5]\n[0.5, -1]\n[0.5, 0.5]\n[0.5, 0.5]\n[0.5, "x"]\n',
             ParseError, 5, 'expected numbers, got "x"'),
            ("over.csv", "0.5,0.5\n0.5,-0.5\n0.2,0.3,0.5\n", RaggedRows, 3,
             "rows have differing lengths"),
            ("first.jsonl", "[0.5, 0.5]\n[1" + "0" * 400 + ", 1]\n[0.5, -0.5]\n", NonFiniteEntry,
             2, "entries must be finite; an integer overflows a float"),
            ("later.jsonl", "[0.5, -0.5]\n[1" + "0" * 400 + ", 1]\n", NegativeEntry, 1,
             "negative entries in array([ 0.5, -0.5])"),
        ],
        ids=["parse", "ragged", "negative", "nan", "huge-int", "zero-mass", "one-entry",
             "parse-error-over-bad-row", "ragged-over-negative", "huge-int-over-later-negative",
             "negative-over-later-huge-int"],
    )
    def test_refusal_names_the_file_line(self, tmp_path, name, text, error, line, message):
        # Parse errors used to count data rows only, not file lines, and
        # ragged rows and refused vectors named no line at all.
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(error) as info:
            load_dataset(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_load_peaks_near_one_matrix(self, tmp_path):
        # numpy reports its buffers to tracemalloc. The file text, its lines,
        # a float list and a ProbVector per row, and the stacked matrix used
        # to peak at 10.9 times the matrix's bytes.
        path = tmp_path / "big.jsonl"
        write_rows(path, np.random.default_rng(66).dirichlet(np.full(500, 0.05), 2000).tolist(),
                   "jsonl")
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.matrix.shape == (2000, 500)
        assert peak <= 2.5 * ds.matrix.nbytes


# Entries as JSON gives them: ints, also past 2**53, and floats, zeros among both.
_ENTRY = st.one_of(
    st.integers(0, 2**60),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.just(0),
)
_DATASETS = st.integers(2, 8).flatmap(
    lambda k: st.lists(
        st.one_of(
            st.lists(_ENTRY, min_size=k, max_size=k).filter(lambda r: sum(r) > 0),
            # Rows that sum to exactly 1.0.
            st.permutations([0.5, 0.5] + [0] * (k - 2)),
            st.permutations([1] + [0] * (k - 1)),
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=80, deadline=None)
@given(rows=_DATASETS, fmt=st.sampled_from(["jsonl", "csv"]))
def test_loaded_bits_equal_probvectors(tmp_path_factory, rows, fmt):
    path = tmp_path_factory.mktemp("rows") / f"rows.{fmt}"
    write_rows(path, rows, fmt)
    expected = np.stack([ProbVector(r, normalize=True).values for r in rows])
    assert np.array_equal(load_dataset(path).matrix.view(np.int64), expected.view(np.int64))


class TestTopMassCurve:
    def test_full_retention_is_exact(self):
        rng = np.random.default_rng(61)
        ds = make_dataset(rng.dirichlet(np.ones(7), size=50))
        curve = top_mass_curve(ds)
        assert curve.avg_top_mass[-1] == 1.0
        assert curve.delta_avg[-1] == 0.0

    def test_one_hot_dataset(self):
        ds = make_dataset([[1, 0, 0], [0, 1, 0]])
        curve = top_mass_curve(ds)
        assert curve.avg_top_mass[0] == 1.0

    def test_uniform_dataset_is_linear(self):
        ds = make_dataset([[0.25] * 4] * 3)
        curve = top_mass_curve(ds)
        assert np.allclose(curve.avg_top_mass, [0.25, 0.5, 0.75, 1.0])

    def test_monotone_nonincreasing_delta(self):
        rng = np.random.default_rng(62)
        ds = make_dataset(rng.dirichlet(np.full(12, 0.3), size=200))
        curve = top_mass_curve(ds)
        assert all(a >= b for a, b in zip(curve.delta_avg, curve.delta_avg[1:]))

    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 129, 300])
    def test_matches_per_column_means(self, rows):
        # numpy's pairwise sum changes at 8 and 128 rows; every mean must be
        # bit for bit the mean of its own tail column.
        k = 40
        ds = make_dataset(np.random.default_rng(rows).dirichlet(np.full(k, 0.5), size=rows))
        ascending = np.sort(ds.matrix, axis=1)
        tail_cum = np.concatenate([np.zeros((rows, 1)), np.cumsum(ascending, axis=1)], axis=1)
        curve = top_mass_curve(ds)
        for k_tops in (range(1, k + 1), [k, 3, 1, 3]):
            at = np.subtract(k_tops, 1)
            expected = np.array([tail_cum[:, k - kt].mean() for kt in k_tops])
            assert np.array_equal(curve.delta_avg[at], expected)
            assert np.array_equal(curve.avg_top_mass[at], 1.0 - expected)

    def test_subset_of_k_tops(self):
        ds = make_dataset([[0.7, 0.2, 0.1]])
        curve = top_mass_curve(ds)
        assert len(curve.delta_avg) == 3
        assert curve.delta_avg[1] == pytest.approx(0.1)
        assert curve.tails(2).tolist() == [curve.delta_avg[1]]


class TestRecommendation:
    def test_one_hot_needs_one(self):
        ds = make_dataset([[1, 0, 0], [0, 0, 1]])
        rec = recommend_ktop(ds, 0.01)
        assert rec.k_top == 1 and rec.satisfied

    def test_uniform_needs_everything(self):
        ds = make_dataset([[0.1] * 10] * 2)
        rec = recommend_ktop(ds, 0.1)
        assert rec.k_top == 10
        assert not rec.satisfied

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(63)
        weights = 1.0 / np.arange(1, 21) ** 2
        rows = rng.dirichlet(weights * 50, size=300)
        ds = make_dataset(rows)
        target = 0.05
        rec = recommend_ktop(ds, target)
        deltas = [
            np.sort(ds.matrix, axis=1)[:, : 20 - kt].sum(axis=1).mean()
            for kt in range(1, 21)
        ]
        expected = next(kt for kt, d in zip(range(1, 21), deltas) if d < target)
        assert rec.k_top == expected

    def test_domain(self):
        ds = make_dataset([[0.5, 0.5]])
        with pytest.raises(DomainError):
            recommend_ktop(ds, 0.0)


class TestTailDiagnostics:
    def test_violation_fraction(self):
        curve = top_mass_curve(make_dataset([[0.9, 0.05, 0.05], [0.98, 0.01, 0.01]]))
        assert curve.violation_fraction(1, 0.05) == 0.5
        assert curve.violation_fraction(1, 0.001) == 1.0

    def test_tail_masses_match_curve(self):
        rng = np.random.default_rng(64)
        ds = make_dataset(rng.dirichlet(np.ones(9), size=40))
        curve = top_mass_curve(ds)
        for kt in (1, 4, 9):
            assert curve.tails(kt).mean() == pytest.approx(
                curve.delta_avg[kt - 1], abs=1e-12
            )

    def test_full_retention_has_no_tail(self):
        curve = top_mass_curve(make_dataset([[0.9, 0.05, 0.05], [0.98, 0.01, 0.01]]))
        assert curve.tails(3).tolist() == [0.0, 0.0]
        assert curve.violation_fraction(3, 0.0) == 0.0

    @pytest.mark.parametrize("k_top", [0, 4])
    def test_k_top_out_of_range(self, k_top):
        curve = top_mass_curve(make_dataset([[0.9, 0.05, 0.05]]))
        with pytest.raises(DomainError, match=f"need 1 <= k_top <= 3, got {k_top}"):
            curve.tails(k_top)


# Datasets of 1 to 12 vectors of dimension 2 to 9, zeros and exact ties among the entries.
_CURVE_DATASETS = st.integers(2, 9).flatmap(
    lambda k: st.lists(
        st.lists(st.sampled_from([0.0, 1e-9, 0.01, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0),
                 min_size=k, max_size=k).filter(lambda r: sum(r) > 0),
        min_size=1,
        max_size=12,
    )
)


@settings(max_examples=150, deadline=None)
@given(rows=_CURVE_DATASETS, data=st.data())
def test_curve_answers_match_brute_force(rows, data):
    ds = make_dataset(rows)
    k = ds.k
    # Each vector's tail at each k_top, summed smallest first, one entry at a time.
    tails = {
        kt: np.array([([0.0] + list(itertools.accumulate(sorted(r))))[k - kt] for r in ds.matrix])
        for kt in range(1, k + 1)
    }
    means = [float(tails[kt].mean()) for kt in range(1, k + 1)]
    curve = top_mass_curve(ds)
    assert all(np.array_equal(curve.tails(kt), tails[kt]) for kt in tails)
    # Targets off the curve, and on it, where < and <= part ways.
    target = data.draw(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([m for m in means if 0.0 < m < 1.0] or [0.5])
    )
    expected_kt = next((kt for kt in range(1, k + 1) if means[kt - 1] < target), k)
    assert curve.recommend(target) == (expected_kt, means[expected_kt - 1], expected_kt < k)
    kt = data.draw(st.integers(1, k))
    delta = data.draw(st.floats(0.0, 1.0) | st.sampled_from(tails[kt].tolist()))
    assert curve.violation_fraction(kt, delta) == sum(t > delta for t in tails[kt]) / len(ds)


class TestDatasetType:
    def test_rejects_mixed_dimensions(self):
        with pytest.raises(RaggedRows):
            VectorDataset([[0.5, 0.5], [1.0, 0.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            VectorDataset(())
        with pytest.raises(ParseError):
            VectorDataset(np.empty((0, 3)))

    def test_rows_must_be_probability_vectors(self):
        with pytest.raises(NegativeEntry):
            VectorDataset([[0.5, 0.5], [1.5, -0.5]])
        with pytest.raises(NotNormalized):
            VectorDataset([[0.5, 0.6]])
        with pytest.raises(DimensionMismatch):
            VectorDataset([0.5, 0.5])

    def test_holds_a_read_only_matrix_and_views_its_rows(self, tmp_path):
        rows = np.array([[0.25, 0.75], [0.5, 0.5]])
        ds = VectorDataset(rows, "label")
        rows[0] = [1.0, 0.0]  # a writable matrix is copied
        assert ds.matrix.tolist() == [[0.25, 0.75], [0.5, 0.5]]
        assert not ds.matrix.flags.writeable
        assert VectorDataset(ds.matrix).matrix is ds.matrix
        assert len(ds) == 2 and ds.k == 2 and ds.source_label == "label"
        path = tmp_path / "rows.csv"
        path.write_text("1,3\n0.2,0.2\n")
        loaded = load_dataset(path)
        for ds in (ds, loaded):
            assert all(np.shares_memory(v.values, ds.matrix) for v in ds.vectors)
            assert [v.values.tolist() for v in ds.vectors] == ds.matrix.tolist()


class TestBudgetIntegration:
    def test_recommendation_feeds_sparse_budget(self):
        # Using the recommended retention size and its measured tail mass as
        # the sparse coder's parameters keeps the realized distortion within
        # the prescribed budget, for the vectors that respect the tail bound.
        from latdist.budget import budget_slq
        from latdist.prob import tv_distance
        from latdist.quantizers import slq_decode, slq_encode

        rng = np.random.default_rng(65)
        weights = 1.0 / np.arange(1, 26) ** 2.5
        ds = make_dataset(rng.dirichlet(weights * 30, size=400))
        rec = recommend_ktop(ds, 0.02)
        assert rec.satisfied
        delta = rec.delta_avg
        beta_s = 0.1
        ell, _ = budget_slq(ds.k, rec.k_top, delta, beta_s)
        curve = top_mass_curve(ds)
        assert curve.recommend(0.02) == rec
        tails = curve.tails(rec.k_top)
        respected = 0
        for vec, tail in zip(ds.vectors, tails):
            if tail > delta:
                continue  # violators are reported, not covered by the bound
            respected += 1
            q = slq_decode(slq_encode(vec, rec.k_top, ell))
            assert tv_distance(vec, q) <= beta_s + 1e-12
        assert respected > 0
        assert curve.violation_fraction(rec.k_top, delta) == pytest.approx(
            1 - respected / len(ds)
        )
