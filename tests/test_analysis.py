"""Topographic similarity, the distance bound, correlations, and binned MI.

Core claims:
    - Pearson/Spearman reproduce the standard hand-checkable values, also
      where the centred sequences' squares would underflow or overflow, or a
      sequence's sum would overflow; sequences of unequal length raise; the
      exact permutation p-value is available for small n; Spearman's tied
      ranks are scipy's; the t-approximation p-value is scipy.stats' to the
      bit, and neither importing treerec nor a topographic similarity
      imports scipy.stats
    - a dataset whose representation distances equal its derivation distances
      scores topographic similarity exactly 1.0; structure-free data scores
      near 0; constant distances raise; the batched computation equals a
      per-pair loop (exactly for l1 and squared_l2); pair distances filled
      in tiles equal one batched call per row to the bit, however the tiles
      split the rows; the Pearson score of l1 data scaled by 2^-700 or 2^600
      is the unscaled one to the bit
    - the representation pairs, filled on a second thread while the TED
      fills, equal each half computed alone, as float64 and int64; an error
      of either half reaches the caller with its own type and leaves no
      thread running; a cosine zero-norm record is named as ``fit`` names it
    - with l1 distance, additive composition, and unit-ball primitive entries,
      representation distances never exceed derivation distance plus twice
      the worst per-record error (verified by enumerating all record pairs);
      an empty primitive table is refused
    - the two supporting inequalities hold exhaustively at small size:
      composed values stay within leaf-count distance of the origin, and
      within edit distance of each other
    - the plug-in MI estimator hits the closed-form values (0 bits, log2 n
      bits, the hand-computed 1-bit case) and stays within [0, log2 n],
      also where a coordinate's range overflows
"""

import itertools
import math
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from pytest import approx
from scipy import stats

from treerec import (
    AdditiveComposition,
    BoundCheckReport,
    ConditionsUnmetError,
    Dataset,
    DegenerateInputError,
    DistanceSpec,
    FitConfig,
    GenSpec,
    Node,
    PrimitiveTable,
    ShapeMismatchError,
    Symbol,
    VectorShape,
    ZeroNormError,
    all_derivations,
    bound_check,
    distance,
    eval_compositional,
    fit,
    generate_compositional,
    generate_random,
    mutual_information_binned,
    pairwise_tree_edit_distances,
    parse_derivation,
    pearson,
    size,
    spearman,
    topographic_similarity,
    tre_datum,
    write_dataset,
)
from treerec import analysis as analysis_module
from treerec.cli import main
from treerec.space import distances

L1 = DistanceSpec("l1")
SQL2 = DistanceSpec("squared_l2")
ADD = AdditiveComposition()


def unit_ball_entries(symbols, dim, rng):
    """Random entries rescaled so pairwise l1 distances and distances to the
    origin are all at most 1."""
    raw = {s: rng.normal(0, 1, dim) for s in symbols}
    scale = max(
        max(np.abs(v).sum() for v in raw.values()),
        max(np.abs(a - b).sum()
            for a, b in itertools.combinations(raw.values(), 2)),
    )
    return {s: v / scale for s, v in raw.items()}


def chain_dataset(levels=5):
    """Left-branching chains of 'a'; pairwise derivation distance is |i - j|
    and representations are the 1-d chain lengths, so both distance lists
    coincide exactly."""
    text = "a"
    rows = [("c1", [1.0], parse_derivation(text))]
    for i in range(2, levels + 1):
        text = f"({text} a)"
        rows.append((f"c{i}", [float(i)], parse_derivation(text)))
    return Dataset.build(rows, VectorShape(1))


class TestPearsonSpearman:
    def test_identical_sequences(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson(xs, xs).coefficient == approx(1.0)
        assert spearman(xs, xs).coefficient == approx(1.0)

    def test_negated(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        ys = [-x for x in xs]
        assert pearson(xs, ys).coefficient == approx(-1.0)
        assert spearman(xs, ys).coefficient == approx(-1.0)

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(0, 1, 20)
        ys = rng.normal(0, 1, 20)
        base = spearman(xs, ys).coefficient
        assert spearman(xs, np.exp(ys)).coefficient == approx(base)
        assert spearman(xs, 3.0 * ys + 10.0).coefficient == approx(base)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("corr", [pearson, spearman])
    def test_unequal_lengths_raise(self, corr):
        with pytest.raises(ValueError, match="^sequences must have equal length$"):
            corr([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_sum_past_float_range(self):
        # 1.7e308 + 1.7e308 overflows: the mean is taken of the scaled sequence.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson([1.7e308, 1.7e308, 0.0], [1.0, 2.0, 3.0]).coefficient
        assert r == approx(-math.sqrt(3.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("corr", [pearson, spearman])
    def test_non_finite_raises(self, corr):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                corr([1.0, 2.0, bad, 3.0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_past_float_range(self, scale):
        # The centred squares overflow to inf or underflow to 0 unless the
        # sequence is rescaled first; at 1e200 the coefficient would read -0.0.
        xs = [scale, -scale, 0.0]
        assert pearson(xs, [1.0, 2.0, 3.0]).coefficient == approx(-0.5)
        assert pearson(xs, xs).coefficient == 1.0

    def test_p_value_decreases_with_n(self):
        xs = np.linspace(0, 1, 6)
        noisy = xs + np.array([0.01, -0.02, 0.015, -0.01, 0.02, -0.015])
        small = pearson(xs[:4], noisy[:4]).p_value
        large = pearson(xs, noisy).p_value
        assert 0.0 <= large < small <= 1.0

    def test_exact_permutation_p_value(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        result = pearson(xs, xs, exact=True)
        # only the identity and full reversal reach |r| = 1: 2/4! = 1/12
        assert result.p_value == approx(2.0 / 24.0)
        with pytest.raises(ValueError):
            pearson(list(range(11)), list(range(11)), exact=True)

    def test_spearman_with_ties_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            xs = rng.integers(0, 5, 30).astype(float)
            ys = 0.5 * rng.integers(0, 7, 30)
            ranked = pearson(stats.rankdata(xs), stats.rankdata(ys))
            assert spearman(xs, ys) == ranked
            # np.corrcoef inside spearmanr sums in another order
            assert spearman(xs, ys).coefficient == approx(
                stats.spearmanr(xs, ys).statistic, rel=1e-12, abs=1e-15)

    def test_counted_ranks_equal_sorted_ranks(self):
        # Whole numbers in [0, n] are ranked by counting; shifted by 0.5 or
        # below 0 they keep their order and ties but are ranked by sorting.
        rng = np.random.default_rng(9)
        for xs in (rng.integers(0, 6, 40).astype(float), rng.integers(0, 41, 40).astype(float),
                   rng.integers(0, 30, 200).astype(float), np.array([3.0, 0.0, 3.0]), np.array([-0.0, 0.0, 1.0]), np.array([1.0]),
                   np.array([0.0])):
            ranks = stats.rankdata(xs).tolist()
            assert analysis_module._average_ranks(xs).tolist() == ranks
            for moved in (xs + 0.5, xs - len(xs) - 1):
                assert analysis_module._average_ranks(moved).tolist() == ranks
        # Past len(xs), or not whole, a sequence is sorted, also when only a
        # value after the first 64 is not whole.
        for xs in (np.array([4.0, 0.0, 1.0]), 0.5 * rng.integers(0, 7, 40),
                   np.r_[rng.integers(0, 6, 64), 2.5, 7.0]):
            assert analysis_module._average_ranks(xs).tolist() == stats.rankdata(xs).tolist()
        assert analysis_module._average_ranks(np.array([])).tolist() == []

    @pytest.mark.parametrize("corr", [pearson, spearman])
    def test_caller_arrays_are_left_unchanged(self, corr):
        # Pearson centres its scaled copies in place, never the caller's float64 arrays.
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(0, 1, 50), rng.integers(0, 9, 50).astype(float)
        before = xs.copy(), ys.copy()
        corr(xs, ys)
        assert xs.tolist() == before[0].tolist() and ys.tolist() == before[1].tolist()

    @pytest.mark.parametrize("xs", [[], [1.0], [0.0]])
    def test_spearman_of_fewer_than_3_pairs_raises(self, xs):
        with pytest.raises(ValueError, match="^need at least 3 pairs$"):
            spearman(xs, xs)

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, treerec, treerec.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_topo_leaves_scipy_stats_unloaded(self):
        code = ("import sys\n"
                "from treerec import (DistanceSpec, GenSpec, VectorShape, "
                "generate_compositional, topographic_similarity)\n"
                "spec = GenSpec(num_primitives=4, shape=VectorShape(3), num_records=8, seed=1)\n"
                "result = topographic_similarity(generate_compositional(spec)[0], "
                "DistanceSpec('l1'))\n"
                "print(0.0 <= result.p_value <= 1.0, 'scipy.stats' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("r,n", [(0.9, 5), (-0.3, 12), (0.05, 400), (1e-9, 3),
                                     (0.999, 6), (0.7, 60), (-0.62, 79800), (0.0, 4)])
    def test_t_approximation_is_scipy_stats_bit_for_bit(self, r, n):
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
        expected = float(2.0 * stats.t.sf(abs(t), df=n - 2))
        assert analysis_module._t_approx_p_value(r, n) == expected

    def test_t_approximation_is_scipy_stats_bit_for_bit_near_1e_8(self):
        # At n = 60, r from 0.62 to 0.70 gives p-values from about 1e-7 to 5e-10.
        for r in np.linspace(0.62, 0.70, 41):
            t = r * np.sqrt(58 / (1.0 - r * r))
            expected = float(2.0 * stats.t.sf(abs(t), df=58))
            assert analysis_module._t_approx_p_value(float(r), 60) == expected
        assert 1e-9 < analysis_module._t_approx_p_value(0.67, 60) < 1e-7

    def test_t_approximation_matches_known_value(self):
        # rank formula: rho = 1 - 6*sum(d^2)/(n(n^2-1)) = 1 - 12/120 = 0.9;
        # then t = 0.9*sqrt(3/0.19) = 3.576 gives p ~= 0.0374 at 3 dof
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [1.0, 2.0, 4.0, 3.0, 5.0]
        result = spearman(xs, ys)
        assert result.coefficient == approx(0.9)
        assert result.p_value == approx(0.0374, abs=1e-3)


def reference_pairs(kind, rows):
    """``_pairs`` as one batched ``distances`` call per row."""
    return np.concatenate([distances(kind, np.broadcast_to(row, rows[i + 1:].shape), rows[i + 1:])
                           for i, row in enumerate(rows)])


class TestPairs:
    @pytest.mark.parametrize("kind", ["cosine", "l1", "squared_l2"])
    @pytest.mark.parametrize("shape", [(16,), (4, 16)], ids=["vector", "code"])
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_tiles_equal_one_call_per_row(self, kind, shape, n):
        rows = np.random.default_rng(n).normal(size=(n,) + shape)
        if n > 3:
            rows[7] = rows[2]  # an exactly equal pair, 0.0 under every kind
        got = analysis_module._pairs(kind, rows)
        assert got.shape == (n * (n - 1) // 2,)
        assert np.array_equal(got, reference_pairs(kind, rows))

    @pytest.mark.parametrize("kind", ["cosine", "l1", "squared_l2"])
    def test_tiles_that_split_rows_and_span_rows(self, monkeypatch, kind):
        # Tiles of 3 pairs over 9 rows: row 0's 8 pairs take three tiles, and
        # the third also holds row 1's first pair.
        rows = np.random.default_rng(5).normal(size=(9, 4, 16))
        sizes = []

        def recorded(*args):
            sizes.append(args[1].size)
            return distances(*args)

        monkeypatch.setattr(analysis_module, "_BLOCK_VALUES", 3 * 64)
        monkeypatch.setattr(analysis_module, "distances", recorded)
        assert np.array_equal(analysis_module._pairs(kind, rows), reference_pairs(kind, rows))
        assert sizes == [3 * 64] * 12


class TestPairDistances:
    @pytest.mark.parametrize("kind", ["cosine", "l1", "squared_l2"])
    def test_overlapped_halves_equal_each_half_alone(self, kind):
        # 120 records of 16 values make 7140 pairs, four tiles of _pairs;
        # a 1 µs switch interval interleaves the two threads finely.
        spec = GenSpec(num_primitives=8, shape=VectorShape(16), depth_range=(1, 4),
                       num_records=120, noise_sigma=0.1, seed=4)
        ds, _ = generate_compositional(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep_d, tree_d = analysis_module._pair_distances(ds, DistanceSpec(kind))
        finally:
            sys.setswitchinterval(interval)
        ted = pairwise_tree_edit_distances([r.derivation for r in ds.records])
        assert rep_d.dtype == np.float64 and tree_d.dtype == np.int64
        assert np.array_equal(rep_d, analysis_module._pairs(kind, ds._values))
        assert np.array_equal(tree_d, np.array(ted, dtype=np.int64)[np.triu_indices(120, 1)])

    @staticmethod
    def small_dataset(deep=False):
        tree = parse_derivation("a")
        for _ in range(60 if deep else 0):
            tree = Node(tree, tree)
        rows = [("a", [1.0], tree), ("b", [2.0], parse_derivation("(a a)")),
                ("c", [4.0], parse_derivation("((a a) a)"))]
        return Dataset.build(rows, VectorShape(1))

    def test_ted_error_reaches_the_caller_after_the_worker_joins(self, monkeypatch):
        pairs = analysis_module._pairs

        def slow(kind, rows):  # still running when the TED raises
            time.sleep(0.2)
            return pairs(kind, rows)

        monkeypatch.setattr(analysis_module, "_pairs", slow)
        threads = threading.active_count()
        with pytest.raises(OverflowError, match="fewer than 2\\^60 leaves"):
            analysis_module._pair_distances(self.small_dataset(deep=True), L1)
        assert threading.active_count() == threads

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def failing(kind, rows):
            raise KeyError("no pairs today")

        monkeypatch.setattr(analysis_module, "_pairs", failing)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="no pairs today"):
            topographic_similarity(self.small_dataset(), L1)
        assert threading.active_count() == threads


def reference_distance(kind, r, s):
    """One pair's distance, straight from the definitions."""
    if kind == "l1":
        return float(np.abs(r - s).sum())
    if kind == "squared_l2":
        return float(((r - s) ** 2).sum())
    return 1.0 - float(r @ s) / (np.linalg.norm(r) * np.linalg.norm(s))


class TestTopographicSimilarity:
    def test_distance_faithful_dataset_scores_one(self):
        ds = chain_dataset()
        for rank in (True, False):
            result = topographic_similarity(ds, L1, rank_based=rank)
            assert result.coefficient == approx(1.0)
            assert result.n == 10

    def test_structure_free_data_scores_near_zero(self):
        spec = GenSpec(num_primitives=5, shape=VectorShape(8), depth_range=(1, 4),
                       num_records=12, seed=0)
        result = topographic_similarity(generate_random(spec), SQL2)
        assert abs(result.coefficient) < 0.3

    def test_permuted_faithful_embedding_scores_near_zero(self):
        ds = chain_dataset(levels=9)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(ds.records))
        shuffled = Dataset(
            tuple(
                type(rec)(rec.id, ds.records[perm[i]].representation, rec.derivation)
                for i, rec in enumerate(ds.records)
            ),
            ds.shape,
        )
        result = topographic_similarity(shuffled, L1)
        assert abs(result.coefficient) < 0.3

    def test_identical_representations_raise(self):
        rows = [("a", [1.0], parse_derivation("a")),
                ("b", [1.0], parse_derivation("(a a)")),
                ("c", [1.0], parse_derivation("((a a) a)"))]
        with pytest.raises(DegenerateInputError):
            topographic_similarity(Dataset.build(rows, VectorShape(1)), L1)

    def test_needs_three_records(self):
        rows = [("a", [1.0], parse_derivation("a")),
                ("b", [2.0], parse_derivation("(a a)"))]
        with pytest.raises(ValueError):
            topographic_similarity(Dataset.build(rows, VectorShape(1)), L1)

    @pytest.mark.parametrize("kind", ["cosine", "l1", "squared_l2"])
    def test_matches_per_pair_reference_loop(self, kind):
        spec = GenSpec(num_primitives=5, shape=VectorShape(6), depth_range=(1, 4),
                       num_records=25, noise_sigma=0.1, seed=3)
        ds, _ = generate_compositional(spec)
        records = ds.records
        tree = pairwise_tree_edit_distances([r.derivation for r in records])
        rep_d, tree_d = [], []
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                rep_d.append(reference_distance(kind, records[i].representation,
                                                records[j].representation))
                tree_d.append(float(tree[i][j]))
        for rank, corr in ((True, spearman), (False, pearson)):
            expected = corr(rep_d, tree_d)
            got = topographic_similarity(ds, DistanceSpec(kind), rank_based=rank)
            if kind == "cosine":
                assert got.n == expected.n
                assert got.coefficient == approx(expected.coefficient, rel=0, abs=1e-12)
            else:
                assert got == expected

    def test_cosine_zero_norm_names_its_record(self, tmp_path, capsys):
        rows = [("a", [1.0, 0.0], parse_derivation("a")),
                ("b", [0.0, 0.0], parse_derivation("(a a)")),
                ("c", [0.0, 1.0], parse_derivation("((a a) a)"))]
        ds = Dataset.build(rows, VectorShape(2))
        with pytest.raises(ZeroNormError) as fitted:
            fit(ds, FitConfig(DistanceSpec("cosine"), steps=1))
        with pytest.raises(ZeroNormError) as topo:
            topographic_similarity(ds, DistanceSpec("cosine"))
        assert str(topo.value) == str(fitted.value)
        assert str(topo.value).endswith("in record 'b'")
        assert topo.value.rows == (1,)
        path = tmp_path / "zero.jsonl"
        write_dataset(path, ds)
        assert main(["topo", str(path), "--distance", "cosine"]) == 2
        assert capsys.readouterr().err == f"error: {topo.value}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [-700, 600])
    def test_pearson_on_power_of_two_rescaled_data_is_unchanged(self, exponent):
        # Every l1 pair distance scales exactly, so the coefficient must not
        # move; squared, distances near 2^-700 underflow and near 2^600 overflow.
        data, _ = generate_compositional(GenSpec(num_primitives=4, shape=VectorShape(6),
                                                 num_records=12, noise_sigma=0.3, seed=5))
        scaled = Dataset(tuple(type(r)(r.id, np.ldexp(r.representation, exponent),
                                       r.derivation) for r in data.records), data.shape)
        assert (topographic_similarity(scaled, L1, rank_based=False)
                == topographic_similarity(data, L1, rank_based=False))

    def test_rank_mode_invariant_to_rescaling_and_relabeling(self):
        spec = GenSpec(num_primitives=4, shape=VectorShape(6), num_records=10,
                       noise_sigma=0.3, seed=5)
        data, _ = generate_compositional(spec)
        renamed = Dataset(
            tuple(type(r)(f"other-{i}", 7.5 * r.representation, r.derivation)
                  for i, r in enumerate(data.records)),
            data.shape)
        a = topographic_similarity(data, L1, rank_based=True)
        b = topographic_similarity(renamed, L1, rank_based=True)
        assert a.coefficient == approx(b.coefficient)


class TestBoundCheck:
    @pytest.mark.parametrize("a_dim,named", [(2, "b"), (3, "a")],
                             ids=["two-shapes", "both-off-the-data"])
    def test_entry_of_wrong_shape_names_the_primitive(self, a_dim, named):
        # Entry b has dim 3 and a has a_dim; the check is against the data's
        # dim 2, in table order.
        table = PrimitiveTable({Symbol("a"): np.full(a_dim, 0.1),
                                Symbol("b"): np.full(3, 0.1)})
        ds = Dataset.build([("x", [0.1, 0.1], parse_derivation("(a b)"))], VectorShape(2))
        with pytest.raises(ShapeMismatchError,
                           match=rf"^primitive '{named}' has shape \(3,\), expected \(2,\)$"):
            bound_check(ds, table, ADD, L1)

    def test_empty_table_is_refused(self):
        ds = Dataset.build([("x", [0.1, 0.1], parse_derivation("a"))], VectorShape(2))
        with pytest.raises(ConditionsUnmetError,
                           match="^conditions unmet: empty primitive table$"):
            bound_check(ds, PrimitiveTable({}), ADD, L1)

    def test_exact_compositional_unit_ball(self):
        # zero reconstruction error: representation distances are bounded by
        # the derivation distances alone
        rng = np.random.default_rng(6)
        symbols = [Symbol(s) for s in "abc"]
        table = PrimitiveTable(unit_ball_entries(symbols, 4, rng))
        texts = ["a", "b", "c", "(a b)", "((a b) c)", "(c c)"]
        rows = []
        tree_rows = []
        for text in texts:
            deriv = parse_derivation(text)
            rows.append((text, eval_compositional(table, ADD, deriv), deriv))
            tree_rows.append(deriv)
        ds = Dataset.build(rows, VectorShape(4))
        report = bound_check(ds, table, ADD, L1)
        assert isinstance(report, BoundCheckReport)
        assert report.holds and not report.violations
        assert report.epsilon == approx(0.0, abs=1e-12)
        tree_d = pairwise_tree_edit_distances(tree_rows)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                lhs = distance(L1, ds.records[i].representation,
                               ds.records[j].representation)
                assert lhs <= tree_d[i][j] + 1e-9

    def test_violations_come_in_pair_order(self, monkeypatch):
        # With every tree distance 0, each pair of records whose exact
        # representations differ violates the bound; repeated derivations and
        # mirrored ones such as "(a b)" and "(b a)" share a representation.
        rng = np.random.default_rng(10)
        symbols = [Symbol(s) for s in "abc"]
        table = PrimitiveTable(unit_ball_entries(symbols, 4, rng))
        trees = all_derivations(symbols, 3)
        derivs = [trees[k] for k in rng.integers(len(trees), size=30)]
        ds = Dataset.build([(f"r{i}", eval_compositional(table, ADD, d), d)
                            for i, d in enumerate(derivs)], VectorShape(4))
        monkeypatch.setattr(analysis_module, "pairwise_tree_edit_distances",
                            lambda trees: [[0] * len(trees) for _ in trees])
        report = bound_check(ds, table, ADD, L1)
        records = ds.records
        expected = [(records[i].id, records[j].id) for i, j in zip(*np.triu_indices(30, 1))
                    if distance(L1, records[i].representation, records[j].representation)
                    > 2 * report.epsilon + 1e-9]
        assert 0 < len(expected) < 30 * 29 // 2
        assert [pair for pair, _, _ in report.violations] == expected
        assert not report.holds

    @pytest.mark.parametrize("texts", [["(a b)"], ["a", "(a b)"]], ids=["one", "two"])
    def test_one_or_two_records_hold(self, texts):
        rng = np.random.default_rng(11)
        table = PrimitiveTable(unit_ball_entries([Symbol(s) for s in "ab"], 3, rng))
        ds = Dataset.build([(text, eval_compositional(table, ADD, parse_derivation(text)),
                             parse_derivation(text)) for text in texts], VectorShape(3))
        report = bound_check(ds, table, ADD, L1)
        assert report.holds and report.violations == ()

    def test_epsilon_is_worst_tre_datum(self):
        # One evaluation of the whole dataset gives each record the error,
        # to the bit, that evaluating it alone gives.
        rng = np.random.default_rng(8)
        table = PrimitiveTable(unit_ball_entries([Symbol(s) for s in "abcd"], 5, rng))
        texts = ["a", "(a b)", "((a b) c)", "(d (c a))", "(b b)", "(((a d) c) b)", "(a b)"]
        rows = [(f"r{i}", eval_compositional(table, ADD, parse_derivation(text))
                 + rng.normal(0, 0.05, 5), parse_derivation(text))
                for i, text in enumerate(texts)]
        ds = Dataset.build(rows, VectorShape(5))
        report = bound_check(ds, table, ADD, L1)
        assert report.epsilon > 0
        assert report.epsilon == max(tre_datum(table, FitConfig(distance=L1), rec)
                                     for rec in ds)

    def test_fitted_noisy_dataset_rescaled(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=5, shape=VectorShape(6), depth_range=(1, 3),
                    num_records=25, noise_sigma=0.3, seed=42))
        fitted = fit(data, FitConfig(distance=L1, steps=600, seed=0))
        entries = fitted.table.entries
        scale = max(
            max(np.abs(v).sum() for v in entries.values()),
            max(np.abs(a - b).sum()
                for a, b in itertools.combinations(entries.values(), 2)))
        rescaled = PrimitiveTable({s: v / max(scale, 1.0) for s, v in entries.items()})
        report = bound_check(data, rescaled, ADD, L1)
        assert report.holds
        assert report.epsilon > 0

    def test_oversized_entry_is_conditions_unmet(self):
        table = PrimitiveTable({Symbol("a"): np.array([5.0, 0.0]),
                                Symbol("b"): np.array([0.0, 0.1])})
        ds = Dataset.build([("x", [1.0, 0.0], parse_derivation("a"))], VectorShape(2))
        with pytest.raises(ConditionsUnmetError, match="unit"):
            bound_check(ds, table, ADD, L1)

    def test_first_far_pair_in_combinations_order_is_named(self):
        # 400 entries in the unit ball; only p3 and p250 are more than unit
        # distance apart, and then also p7 and p9, which come later in
        # ``itertools.combinations`` order although 9 < 250.
        rng = np.random.default_rng(9)
        entries = {Symbol(f"p{i}"): v for i, v in enumerate(rng.uniform(-1, 1, (400, 4)) / 200)}
        entries[Symbol("p3")] = np.array([0.0, 0.4, 0.0, 0.0])
        entries[Symbol("p250")] = np.array([0.0, -0.65, 0.0, 0.0])
        ds = Dataset.build([("x", [0.0] * 4, parse_derivation("p0"))], VectorShape(4))
        message = ("^conditions unmet: entries 'p3' and 'p250' are more than unit "
                   r"distance apart \(1\.05\)$")
        with pytest.raises(ConditionsUnmetError, match=message):
            bound_check(ds, PrimitiveTable(entries), ADD, L1)
        entries[Symbol("p7")] = np.array([0.5, 0.05, 0.0, 0.0])
        entries[Symbol("p9")] = np.array([-0.5, -0.05, 0.0, 0.0])
        with pytest.raises(ConditionsUnmetError, match=message):
            bound_check(ds, PrimitiveTable(entries), ADD, L1)

    def test_entry_outside_unit_ball_is_named_before_a_far_pair(self):
        # p1 and p2 are 1.1 apart and come before p3 in entry order, but an
        # entry outside the unit ball is named first.
        entries = {Symbol(f"p{i}"): np.array(v)
                   for i, v in enumerate([[0.1, 0.0], [0.5, 0.0], [-0.6, 0.0], [0.0, 1.5]])}
        ds = Dataset.build([("x", [0.0, 0.0], parse_derivation("p0"))], VectorShape(2))
        with pytest.raises(ConditionsUnmetError) as err:
            bound_check(ds, PrimitiveTable(entries), ADD, L1)
        assert str(err.value) == ("conditions unmet: entry 'p3' lies outside the unit ball "
                                  "(distance to origin 1.5)")

    def test_wrong_distance_or_composition_refused(self):
        table = PrimitiveTable({Symbol("a"): np.array([0.1, 0.0])})
        ds = Dataset.build([("x", [1.0, 0.0], parse_derivation("a"))], VectorShape(2))
        with pytest.raises(ConditionsUnmetError):
            bound_check(ds, table, ADD, SQL2)
        from treerec import LinearComposition
        with pytest.raises(ConditionsUnmetError):
            bound_check(ds, table, LinearComposition(np.eye(2), np.eye(2)), L1)

    def test_theorem_on_fitted_synthetic_datasets(self):
        # smaller rehearsal of the acceptance sweep
        for seed in range(8):
            data, _ = generate_compositional(
                GenSpec(num_primitives=4, shape=VectorShape(5), depth_range=(1, 3),
                        num_records=15, noise_sigma=0.4, seed=seed))
            fitted = fit(data, FitConfig(distance=L1, steps=400, seed=0))
            entries = fitted.table.entries
            scale = max(
                max(np.abs(v).sum() for v in entries.values()),
                max(np.abs(a - b).sum()
                    for a, b in itertools.combinations(entries.values(), 2)))
            rescaled = PrimitiveTable(
                {s: v / max(scale, 1.0) for s, v in entries.items()})
            assert bound_check(data, rescaled, ADD, L1).holds


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(13)
    return PrimitiveTable(unit_ball_entries([Symbol(s) for s in "abc"], 3, rng))


class TestSupportingInequalities:

    def test_composed_values_stay_within_leaf_count_of_origin(self, table):
        zero = np.zeros(3)
        for deriv in all_derivations([Symbol(s) for s in "abc"], 5):
            value = eval_compositional(table, ADD, deriv)
            assert distance(L1, value, zero) <= size(deriv) + 1e-9

    def test_composed_value_distances_bounded_by_edit_distance(self, table):
        trees = all_derivations([Symbol(s) for s in "abc"], 4)
        values = np.stack([eval_compositional(table, ADD, d) for d in trees])
        tree_d = np.array(pairwise_tree_edit_distances(trees))
        rep_d = np.abs(values[:, None, :] - values[None, :, :]).sum(axis=2)
        assert (rep_d <= tree_d + 1e-9).all()


class TestMutualInformation:
    def test_constant_representations_zero_bits(self):
        reps = [np.array([3.0, 3.0])] * 5
        assert mutual_information_binned(list("abcde"), reps) == 0.0

    def test_distinct_representations_log2_n_bits(self):
        n = 8
        reps = [np.array([float(i)]) for i in range(n)]
        got = mutual_information_binned([f"x{i}" for i in range(n)], reps, bins=16)
        assert got == approx(np.log2(n))

    def test_hand_computed_one_bit_case(self):
        # two labels, each deterministically producing one of two patterns:
        # H(repr) = 1 bit, H(repr | label) = 0
        inputs = ["u", "u", "v", "v"]
        reps = [np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([1.0])]
        assert mutual_information_binned(inputs, reps, bins=2) == approx(1.0)

    def test_label_independent_patterns_zero_bits(self):
        inputs = ["u", "u", "v", "v"]
        reps = [np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([1.0])]
        assert mutual_information_binned(inputs, reps, bins=2) == approx(0.0)

    def test_bounded_by_log2_n(self):
        rng = np.random.default_rng(3)
        n = 20
        reps = [rng.normal(0, 1, 4) for _ in range(n)]
        labels = [f"l{i % 5}" for i in range(n)]
        got = mutual_information_binned(labels, reps, bins=7)
        assert 0.0 <= got <= np.log2(n) + 1e-12

    def test_constant_coordinate_is_tolerated(self):
        reps = [np.array([1.0, 0.5]), np.array([2.0, 0.5]), np.array([3.0, 0.5])]
        got = mutual_information_binned(["a", "b", "c"], reps, bins=4)
        assert got == approx(np.log2(3))

    @pytest.mark.filterwarnings("error")
    def test_range_past_float_max_bins_without_overflow(self):
        # 1e308 - (-1e308) overflows; on halved values the three records
        # fall in three bins, the first, the middle and the last.
        got = mutual_information_binned([0, 1, 2], [[1e308], [0.0], [-1e308]])
        assert got == approx(np.log2(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_raises(self, bad):
        # A NaN coordinate would read as constant and an inf one would bin
        # values cast from NaN; either way a number would come back.
        reps = [np.array([1.0, 0.5]), np.array([2.0, bad]), np.array([3.0, 0.5])]
        with pytest.raises(ValueError, match="^representation values must be finite$"):
            mutual_information_binned(["a", "b", "c"], reps, bins=4)

    def test_array_labels_equal_list_labels(self):
        labels = [0, 1, 0, 1]
        reps = [np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([1.0])]
        got = mutual_information_binned(np.array(labels), reps, bins=2)
        assert got == mutual_information_binned(labels, reps, bins=2) == approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information_binned([], [])
        with pytest.raises(ValueError, match="^empty input$"):
            mutual_information_binned(np.array([]), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            mutual_information_binned(["a"], [np.zeros(2)], bins=1)
        with pytest.raises(ValueError):
            mutual_information_binned(["a", "b"], [np.zeros(2)])
        # Four records on which a fractional or non-finite count of bins
        # would be cast through and a number returned.
        labels, reps = [0, 1, 0, 1], [np.array([float(v)]) for v in (0, 1, 0, 1)]
        for bins in (2.5, np.nan, np.inf, True):
            with pytest.raises(ValueError, match="^bins must be an integer of at least 2"):
                mutual_information_binned(labels, reps, bins=bins)
        assert mutual_information_binned(labels, reps, bins=np.int64(2)) == approx(1.0)
