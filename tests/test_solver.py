"""Compositional evaluation, the reconstruction-error objective, and fitting.

Core claims:
    - a dataset rejects a duplicate id, a wrongly shaped or a non-finite
      representation, naming the first faulty record in record order, and
      refuses to hold no records
    - bottom-up evaluation and per-record error match hand arithmetic; a
      linear composition without matrices takes the table's weights
    - the closed-form least-squares oracle reproduces the hand-solved
      3-record instance exactly (aggregate 4/9, known entries)
    - the gradient fit agrees with the closed-form oracle
    - exact-fit data fits to ~zero error; a returned generating table has
      zero error on noiseless data
    - zero aggregate error implies the stored representations themselves
      compose exactly (checked via homomorphism residuals)
    - an unrestricted lookup composition reproduces any injective
      derivation-closed dataset perfectly
    - fits are deterministic, record-order invariant, and report the mean of
      per-record errors as the aggregate
    - the composition decides learned weights: a linear one without matrices
      learns them, ``FitConfig`` derives ``learn_composition`` and the
      default restarts (5, else 1) and refuses a given value that disagrees,
      and a learned-linear report is the same with or without the flag
    - a learned linear fit builds no dense subtrees x primitives table, also
      when an all-zero cosine start ends it in DivergenceError
    - the linear backward pass adds into each subtree's gradient in one fixed
      order (roots, then levels top-down, left block before right block), so
      its sums are reproducible to the bit; a gradient check of no trials is
      refused
    - the directional gradient check reads above 1e-4 when any one gradient
      entry is 1% off, and checks additive l1 on 2e4 records
    - an additive squared_l2 step reads the Gram of the leaf counts about
      the least-squares optimum, and equals the per-record sum and gradient
      at distances 1 to 1e-3 from it and with rank-deficient counts;
      additive cosine sums over the distinct leaf-count rows, weighted, plus
      a constant, and that sum equals the per-record one in value and
      gradient; l1 sums over the records
    - a zero-norm cosine prediction raises DivergenceError naming the step
      and the first record, in record order, that predicts 0, found record
      by record: in one row block and in 2-row blocks, under additive and
      learned-linear composition, at the first zero in the first restart
    - learned-linear squared_l2 and cosine sum over the distinct DAG roots,
      weighted, plus a constant, within 1e-12 of the per-record sum in value
      and all three gradients, even where a root's cosine targets cancel;
      l1 equals the per-record sum to the bit; a problem built for fixed
      linear weights sums over the roots too
    - a learned-linear fit that diverges, also through weights that turn
      non-finite, raises DivergenceError naming the step; evaluating no
      derivations is a ValueError
    - a table entry whose shape differs from the data's, or from the other
      entries', raises ShapeMismatchError naming its primitive and both
      shapes
    - the additive l1 gradient is exactly the transposed leaf counts times
      the residual signs, and fit reports on generated data match pinned
      digests, with the final objective, a flat sum, pinned to 1e-12
    - the rows' targets, weights, norms and constant equal those of a scatter
      over whole rows to the bit; the backward pass keeps its order on a
      9-level DAG and from the rows of ``_loss_and_grads``, and one fit
      builds its level indices once
    - a dataset compiles its DAG once for every fit, objective, closed-form
      fit, gradient check and bound check of it, keeps its stacked values
      read-only, neither fits nor writes a record changed after first use,
      renders the reports of a fresh read, and a replaced one builds its
      own; ``tre_datum`` refuses a non-finite record as a dataset does
    - row blocks in the step's two buffers keep the l1 gradient bits with a
      short last block, and a zero-norm cosine row in the second block is
      named and ends the fit
    - a dataset's values are one float64 stack: int64, bool and float32
      records give their float64 copy's trivial-table objective (0.0),
      topographic similarities, cosine fit report, homomorphism residuals
      and written file; trivial-table entries are writable copies; no
      composing record gives no residuals
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from pytest import approx

import treerec.solver as solver_module
from treerec import (
    AdditiveComposition,
    CodeShape,
    Dataset,
    DistanceSpec,
    DivergenceError,
    FitConfig,
    GenSpec,
    Leaf,
    LinearComposition,
    MissingPrimitiveError,
    PrimitiveTable,
    Record,
    ShapeMismatchError,
    Symbol,
    TableComposition,
    VectorShape,
    ZeroNormError,
    all_derivations,
    bound_check,
    closed_form_fit,
    eval_compositional,
    fit,
    generate_compositional,
    generate_random,
    gradient_check,
    homomorphism_residuals,
    objective,
    parse_derivation,
    read_dataset,
    topographic_similarity,
    tre_datum,
    trivial_composition_table,
    write_dataset,
)
from treerec.dataio import render_report, report_to_dict
from treerec.space import _loss_and_dpred, _row_norms, distances

SQL2 = DistanceSpec("squared_l2")
L1 = DistanceSpec("l1")
COSINE = DistanceSpec("cosine")
ADD = AdditiveComposition()


def vec_dataset(rows, dim):
    return Dataset.build(
        [(rid, rep, parse_derivation(text)) for rid, rep, text in rows],
        VectorShape(dim),
    )


@pytest.fixture()
def hand_instance():
    """Least-squares instance solved by hand via the normal equations:
    optimal entries a=[1, 2/3], b=[0, 5/3]; every residual is 4/9."""
    return vec_dataset(
        [("x1", [1.0, 0.0], "a"), ("x2", [0.0, 1.0], "b"), ("x3", [1.0, 3.0], "(a b)")],
        dim=2,
    )


class TestDataset:
    @pytest.mark.parametrize("reps,error,message,record", [
        ([("a", [0.0, 1.0]), ("b", [np.nan, 0.0]), ("c", [np.inf, 0.0])], ValueError,
         "record 'b': representation values must be finite", 1),
        ([("a", [0.0, 1.0]), ("b", [1.0]), ("c", [np.nan, 0.0])], ShapeMismatchError,
         r"record 'b': expected array of shape \(2,\), got \(1,\)", 1),
        ([("a", [np.nan, 1.0]), ("b", [1.0, 0.0, 0.0])], ValueError, "record 'a': .* finite", 0),
        ([("a", [[0.0, 1.0]])], ShapeMismatchError, r"record 'a': .* got \(1, 2\)", 0),
        ([("a", [0.0, 1.0]), ("b", [np.nan, 0.0]), ("a", [1.0, 0.0])], ValueError,
         "record 'b': .* finite", 1),
        ([("a", [0.0, 1.0]), ("a", [1.0, 0.0]), ("c", [np.nan, 0.0])], ValueError,
         "duplicate record id 'a'", 1),
    ], ids=["non_finite", "shape", "non_finite_before_shape", "first_shape",
            "non_finite_before_duplicate", "duplicate_before_non_finite"])
    def test_first_faulty_record_is_named(self, reps, error, message, record):
        rows = [(rid, rep, parse_derivation("a")) for rid, rep in reps]
        with pytest.raises(error, match=f"^{message}$") as err:
            Dataset.build(rows, VectorShape(2))
        assert type(err.value) is error
        assert err.value.record == record

    @pytest.mark.parametrize("build", [Dataset, Dataset.build], ids=["init", "build"])
    def test_no_records_is_refused(self, build):
        with pytest.raises(ValueError, match="^dataset must contain at least one record$"):
            build([], VectorShape(2))


def cache_dataset(num_records=40):
    return generate_compositional(GenSpec(num_primitives=4, shape=VectorShape(3),
                                          num_records=num_records, noise_sigma=0.1, seed=5))[0]


def rendered_fit(dataset, kind):
    config = FitConfig(distance=DistanceSpec(kind), steps=30, seed=2)
    return render_report(report_to_dict(fit(dataset, config), config, dataset.shape))


class TestDatasetCaches:
    def test_one_compile_serves_every_call(self, monkeypatch):
        dataset, compiled = cache_dataset(), []
        real = solver_module._compile

        def counted(derivations):
            compiled.append(1)
            return real(derivations)

        monkeypatch.setattr(solver_module, "_compile", counted)
        for kind in ("squared_l2", "l1", "cosine"):
            config = FitConfig(distance=DistanceSpec(kind), steps=5)
            objective(fit(dataset, config).table, config, dataset)
            gradient_check(dataset, config, trials=2)
        closed_form_fit(dataset)
        small = PrimitiveTable({sym: np.full(3, 0.1) for sym in dataset._dag.symbols})
        bound_check(dataset, small, ADD, L1)
        assert len(compiled) == 1
        assert solver_module._build_problem(dataset, "cosine", ADD).targets is dataset._values

    def test_values_are_read_only_and_kept(self, tmp_path):
        dataset, first, again = cache_dataset(), tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        before = rendered_fit(dataset, "l1")
        write_dataset(first, dataset)
        assert not dataset._values.flags.writeable
        # Stacked on first use: a record array changed in place later is
        # neither fit nor written.
        dataset.records[0].representation[:] += 1.0
        assert rendered_fit(dataset, "l1") == before
        write_dataset(again, dataset)
        assert again.read_bytes() == first.read_bytes()

    def test_reports_equal_a_fresh_read(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, cache_dataset())
        dataset = read_dataset(path)[0]
        for kind in ("squared_l2", "l1", "cosine"):
            once = rendered_fit(dataset, kind)
            assert rendered_fit(dataset, kind) == once
            assert rendered_fit(read_dataset(path)[0], kind) == once

    def test_replaced_dataset_builds_its_own_caches(self):
        dataset = cache_dataset()
        rendered_fit(dataset, "squared_l2")
        part = dataclasses.replace(dataset, records=dataset.records[:25])
        assert len(part._values) == len(part._dag.roots) == 25
        assert part._dag is not dataset._dag
        fresh = Dataset(dataset.records[:25], dataset.shape)
        for kind in ("squared_l2", "l1", "cosine"):
            assert rendered_fit(part, kind) == rendered_fit(fresh, kind)


STACK_TEXTS = ("a", "b", "c", "(a b)", "(b c)", "((a b) c)", "(a (b c))")
STACK_VALUES = np.array([[1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 0],
                         [1, 0, 0, 0], [1, 1, 0, 1], [1, 0, 1, 1]])


def stack_dataset(dtype):
    """A derivation-closed dataset whose records hold ``dtype`` arrays."""
    return Dataset([Record(text, value.astype(dtype), parse_derivation(text))
                    for text, value in zip(STACK_TEXTS, STACK_VALUES)], VectorShape(4))


def stack_outputs(dataset, tmp_path):
    """What each reader of a dataset's values makes of it."""
    table, comp = trivial_composition_table(dataset)
    topo = [topographic_similarity(dataset, spec) for spec in (COSINE, L1)]
    path = tmp_path / "stack.jsonl"
    write_dataset(path, dataset)
    return {
        "trivial objective": objective(table, FitConfig(distance=SQL2, composition=comp),
                                       dataset),
        "topo": [(t.coefficient, t.p_value, t.n) for t in topo],
        "cosine fit": rendered_fit(dataset, "cosine"),
        "homomorphism": homomorphism_residuals(dataset, ADD, SQL2),
        "file": path.read_bytes(),
        "read back": read_dataset(path)[0]._values.tolist(),
    }


class TestValueStack:
    """A dataset's values are one float64 stack, which every reader reads,
    so integer, boolean and float32 records give what their float64 copy gives."""

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32],
                             ids=["int64", "bool", "float32"])
    def test_integer_and_boolean_records_read_as_their_float_copy(self, dtype, tmp_path):
        got = stack_outputs(stack_dataset(dtype), tmp_path)
        want = stack_outputs(stack_dataset(np.float64), tmp_path)
        assert want["trivial objective"] == 0.0
        for name in want:
            assert got[name] == want[name], name
        assert all(type(e) is float for e in got["homomorphism"].values())
        assert b"[1.0, 0.0, 0.0, 1.0]" in got["file"]

    def test_trivial_entries_are_writable_copies(self):
        dataset = stack_dataset(np.float64)
        table, _ = trivial_composition_table(dataset)
        for entry in table.entries.values():
            assert entry.flags.writeable
            assert not np.shares_memory(entry, dataset._values)
            assert not any(np.shares_memory(entry, r.representation) for r in dataset)

    @pytest.mark.parametrize("comp", [
        ADD, LinearComposition(0.5 * np.eye(4), np.eye(4)), TableComposition()],
        ids=["additive", "fixed_linear", "table"])
    def test_no_composing_record_gives_no_residuals(self, comp):
        # Each node lacks a child among the records, or is a leaf.
        ds = stack_dataset(np.float64)
        part = Dataset([r for r in ds if r.id in ("a", "b", "(b c)", "((a b) c)")], ds.shape)
        for spec in (SQL2, L1, COSINE):
            assert homomorphism_residuals(part, comp, spec) == {}


class TestEvalCompositional:
    def test_leaf_returns_entry(self):
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 0.0])})
        got = eval_compositional(table, ADD, parse_derivation("a"))
        assert got == approx(np.array([1.0, 0.0]))

    def test_pair_adds(self):
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 0.0]),
                                Symbol("b"): np.array([0.0, 1.0])})
        got = eval_compositional(table, ADD, parse_derivation("(a b)"))
        assert got == approx(np.array([1.0, 1.0]))

    def test_nested_addition(self):
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 0.0]),
                                Symbol("b"): np.array([0.0, 1.0]),
                                Symbol("c"): np.array([2.0, 0.0])})
        got = eval_compositional(table, ADD, parse_derivation("((a b) c)"))
        assert got == approx(np.array([3.0, 1.0]))

    def test_linear_without_matrices_takes_the_tables_weights(self, hand_instance):
        # As tre_datum and objective do: a learned fit's table evaluates
        # with the placeholder composition its config was given.
        config = FitConfig(distance=SQL2, composition=LinearComposition(),
                           learn_composition=True, steps=20, restarts=1)
        table = fit(hand_instance, config).table
        trees = [r.derivation for r in hand_instance.records]
        got = eval_compositional(table, LinearComposition(), trees)
        assert np.array_equal(got, eval_compositional(table, table.composition_params, trees))
        assert [tre_datum(table, config, r) for r in hand_instance.records] == approx(
            [float(((r.representation - g) ** 2).sum()) for r, g in zip(hand_instance, got)])
        with pytest.raises(ValueError, match="neither given nor in the table"):
            eval_compositional(PrimitiveTable(table.entries), LinearComposition(), trees)

    def test_linear_code_rows_match_recursive_reference(self):
        rng = np.random.default_rng(9)
        symbols = [Symbol(name) for name in "abc"]
        table = PrimitiveTable({sym: rng.normal(size=(3, 4)) for sym in symbols})
        comp = LinearComposition(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))

        def reference(d):
            if isinstance(d, Leaf):
                return table.entries[d.symbol]
            return (comp.left_weights @ reference(d.left)
                    + comp.right_weights @ reference(d.right))

        trees = all_derivations(symbols, 5)
        values = eval_compositional(table, comp, trees)
        for tree, value in zip(trees, values):
            assert np.array_equal(value, reference(tree))

    def test_missing_primitive_names_symbol(self):
        table = PrimitiveTable({Symbol("a"): np.zeros(2)})
        with pytest.raises(MissingPrimitiveError, match="b"):
            eval_compositional(table, ADD, parse_derivation("(a b)"))

    def test_entries_of_two_shapes_name_the_primitive(self):
        # No dataset gives the shape, so the first symbol's entry does.
        table = PrimitiveTable({Symbol("a"): np.zeros(2), Symbol("b"): np.zeros(3)})
        with pytest.raises(ShapeMismatchError,
                           match=r"^primitive 'b' has shape \(3,\), expected \(2,\)$"):
            eval_compositional(table, ADD, parse_derivation("(a b)"))

    def test_no_derivations_is_an_error(self):
        table = PrimitiveTable({Symbol("a"): np.zeros(2)})
        with pytest.raises(ValueError, match="^no derivations to evaluate$"):
            eval_compositional(table, ADD, [])


class TestTreDatum:
    def test_exact_fit_is_zero(self):
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 0.0]),
                                Symbol("b"): np.array([0.0, 1.0])})
        config = FitConfig(distance=SQL2)
        rec = Record("x", np.array([1.0, 1.0]), parse_derivation("(a b)"))
        assert tre_datum(table, config, rec) == 0.0

    def test_hand_arithmetic(self):
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 2.0 / 3.0])})
        config = FitConfig(distance=SQL2)
        rec = Record("x", np.array([1.0, 0.0]), parse_derivation("a"))
        assert tre_datum(table, config, rec) == approx(4.0 / 9.0)

    def test_entry_of_wrong_shape_names_the_primitive(self):
        table = PrimitiveTable({Symbol("a"): np.zeros(2), Symbol("b"): np.zeros(3)})
        rec = Record("x", np.array([1.0, 1.0]), parse_derivation("(a b)"))
        with pytest.raises(ShapeMismatchError,
                           match=r"^primitive 'b' has shape \(3,\), expected \(2,\)$"):
            tre_datum(table, FitConfig(distance=SQL2), rec)

    @pytest.mark.parametrize("value", [[np.nan, 1.0], [[0.0, np.inf]]], ids=["vector", "code"])
    def test_non_finite_record_is_refused_as_a_dataset_refuses_it(self, value):
        table = PrimitiveTable({Symbol("a"): np.zeros(np.shape(value))})
        rec = Record("x", np.array(value), parse_derivation("a"))
        with pytest.raises(ValueError,
                           match="^record 'x': representation values must be finite$") as err:
            tre_datum(table, FitConfig(distance=SQL2), rec)
        assert err.value.record == 0

    @pytest.mark.parametrize("value", [1.0, np.ones((2, 2, 2))], ids=["scalar", "3-d"])
    def test_record_neither_vector_nor_code_is_refused(self, value):
        table = PrimitiveTable({Symbol("a"): np.zeros(np.shape(value))})
        rec = Record("x", np.asarray(value), parse_derivation("a"))
        with pytest.raises(ShapeMismatchError, match="^record 'x': expected array of shape"):
            tre_datum(table, FitConfig(distance=SQL2), rec)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        config = FitConfig(distance=L1)
        for _ in range(20):
            table = PrimitiveTable({Symbol("a"): rng.normal(0, 1, 3)})
            rec = Record("x", rng.normal(0, 1, 3), parse_derivation("(a a)"))
            assert tre_datum(table, config, rec) >= 0.0


class TestObjective:
    def test_sum_not_mean(self, hand_instance):
        report = closed_form_fit(hand_instance)
        config = FitConfig(distance=SQL2)
        total = objective(report.table, config, hand_instance)
        assert total == approx(4.0 / 3.0, rel=1e-12)
        assert total == approx(len(hand_instance) * report.aggregate, rel=1e-12)

    def test_zero_on_exact_instance(self):
        ds = vec_dataset([("x1", [1.0, 0.0], "a"), ("x2", [1.0, 0.0], "a")], dim=2)
        table = PrimitiveTable({Symbol("a"): np.array([1.0, 0.0])})
        assert objective(table, FitConfig(distance=SQL2), ds) == 0.0

    def test_entry_of_wrong_shape_names_the_primitive(self, hand_instance):
        table = PrimitiveTable({Symbol("a"): np.zeros(3), Symbol("b"): np.zeros(2)})
        with pytest.raises(ShapeMismatchError,
                           match=r"^primitive 'a' has shape \(3,\), expected \(2,\)$"):
            objective(table, FitConfig(distance=L1), hand_instance)


class TestClosedFormFit:
    def test_hand_instance_exact(self, hand_instance):
        report = closed_form_fit(hand_instance)
        assert report.aggregate == approx(4.0 / 9.0, rel=1e-12)
        assert report.table.entries[Symbol("a")] == approx(np.array([1.0, 2.0 / 3.0]))
        assert report.table.entries[Symbol("b")] == approx(np.array([0.0, 5.0 / 3.0]))
        for value in report.per_datum.values():
            assert value == approx(4.0 / 9.0, rel=1e-9)

    def test_noiseless_data_is_exact(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=4, shape=VectorShape(5), num_records=25, seed=3))
        assert closed_form_fit(data).aggregate == approx(0.0, abs=1e-18)

    def test_rank_deficient_minimum_norm(self):
        # a and b never observed apart: minimum-norm splits the sum evenly
        ds = vec_dataset([("x", [2.0, 4.0], "(a b)")], dim=2)
        report = closed_form_fit(ds)
        assert report.table.entries[Symbol("a")] == approx(np.array([1.0, 2.0]))
        assert report.table.entries[Symbol("b")] == approx(np.array([1.0, 2.0]))
        assert report.aggregate == approx(0.0, abs=1e-24)


class TestFit:
    def test_noiseless_additive_recovery(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=8, shape=VectorShape(16), num_records=60, seed=7))
        report = fit(data, FitConfig(distance=SQL2, seed=0))
        assert report.aggregate < 1e-3

    def test_hand_instance_matches_oracle(self, hand_instance):
        report = fit(hand_instance, FitConfig(distance=SQL2, steps=2000, seed=0))
        assert report.aggregate == approx(4.0 / 9.0, abs=1e-3)
        assert report.table.entries[Symbol("a")] == approx(
            np.array([1.0, 2.0 / 3.0]), abs=2e-2)
        assert report.table.entries[Symbol("b")] == approx(
            np.array([0.0, 5.0 / 3.0]), abs=2e-2)

    @pytest.mark.parametrize("spec,tol", [(SQL2, 1e-8), (COSINE, 1e-5)])
    def test_single_record_fits_exactly(self, spec, tol):
        ds = vec_dataset([("x", [0.3, -1.2, 0.7], "a")], dim=3)
        report = fit(ds, FitConfig(distance=spec, steps=2000, seed=1))
        assert report.aggregate < tol

    def test_single_record_l1(self):
        # l1 sign steps stall near (not at) the optimum; bound is looser
        ds = vec_dataset([("x", [0.3, -1.2, 0.7], "a")], dim=3)
        report = fit(ds, FitConfig(distance=L1, steps=3000,
                                   learning_rate=0.005, seed=1))
        assert report.aggregate < 0.05

    def test_agrees_with_closed_form_on_random_instances(self):
        for k in range(5):
            data, _ = generate_compositional(
                GenSpec(num_primitives=6, shape=VectorShape(6), depth_range=(1, 3),
                        num_records=30, noise_sigma=0.5, seed=100 + k))
            oracle = closed_form_fit(data)
            report = fit(data, FitConfig(distance=SQL2, steps=2500, seed=1))
            assert abs(report.aggregate - oracle.aggregate) < 1e-3

    def test_agrees_with_closed_form_on_code_shaped_data(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=4, shape=CodeShape(3, 5), num_records=20,
                    noise_sigma=0.1, seed=3))
        oracle = closed_form_fit(data)
        report = fit(data, FitConfig(distance=SQL2, steps=2000, seed=0))
        assert abs(report.aggregate - oracle.aggregate) < 1e-3

    def test_negative_seeds_are_valid(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=3, shape=VectorShape(4), num_records=10, seed=-7))
        report = fit(data, FitConfig(distance=SQL2, steps=100, seed=-3))
        assert np.isfinite(report.aggregate)

    def test_aggregate_is_mean_of_per_datum(self, hand_instance):
        report = fit(hand_instance, FitConfig(distance=SQL2, seed=0))
        values = list(report.per_datum.values())
        assert report.aggregate == approx(sum(values) / len(values), rel=1e-12)
        assert all(v >= 0 for v in values)

    def test_deterministic(self, hand_instance):
        config = FitConfig(distance=SQL2, steps=200, seed=5)
        r1 = fit(hand_instance, config)
        r2 = fit(hand_instance, config)
        assert r1.per_datum == r2.per_datum
        assert r1.objective_trace == r2.objective_trace
        assert all(np.array_equal(r1.table.entries[s], r2.table.entries[s])
                   for s in r1.table.entries)

    def test_record_order_invariance(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=5, shape=VectorShape(6), num_records=30,
                    noise_sigma=0.2, seed=11))
        shuffled = Dataset(tuple(reversed(data.records)), data.shape)
        config = FitConfig(distance=SQL2, steps=1500, seed=4)
        r1 = fit(data, config)
        r2 = fit(shuffled, config)
        assert abs(r1.aggregate - r2.aggregate) < 1e-6

    def test_fixed_linear_composition(self):
        rng = np.random.default_rng(0)
        side = 5
        comp = LinearComposition(np.eye(side) + 0.3 * rng.normal(0, 1, (side, side)),
                                 np.eye(side) + 0.3 * rng.normal(0, 1, (side, side)))
        data, _ = generate_compositional(
            GenSpec(num_primitives=5, shape=VectorShape(side), depth_range=(1, 3),
                    num_records=30, composition=comp, seed=9))
        report = fit(data, FitConfig(distance=SQL2, composition=comp,
                                     steps=3000, seed=2))
        assert report.aggregate < 1e-3

    def test_learnable_linear_on_additive_data(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=5, shape=VectorShape(5), depth_range=(1, 3),
                    num_records=30, seed=10))
        report = fit(data, FitConfig(distance=SQL2, composition=LinearComposition(),
                                     learn_composition=True, steps=1500, seed=2,
                                     restarts=1))
        assert report.aggregate < 1e-2
        assert report.table.composition_params is not None

    def test_divergence_names_the_step(self, hand_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(hand_instance, FitConfig(distance=SQL2, learning_rate=1e200,
                                             steps=50, seed=0))
        assert err.value.step >= 1

    @pytest.mark.parametrize("spec", [SQL2, L1, COSINE], ids=lambda s: s.kind)
    def test_learned_linear_divergence_names_the_step(self, hand_instance, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(hand_instance, FitConfig(distance=spec, composition=LinearComposition(),
                                             learn_composition=True, learning_rate=1e200,
                                             steps=50, seed=0, restarts=1))
        assert err.value.step == 1

    def test_non_finite_learned_weights_end_in_divergence(self, monkeypatch):
        # Entries of 1e200 and weights of 1e-47 give a finite objective
        # (about 8e306) whose weight gradient overflows, so the first Adam
        # step makes the weights NaN.  The fit must stop on the objective at
        # step 1, not on a finiteness check of the weights.
        data = vec_dataset([("x", [1.0, 3.0], "(a b)")], dim=2)
        monkeypatch.setattr(solver_module, "_init_params",
                            lambda problem, *_: np.full((2, 2), 1e200))
        monkeypatch.setattr(solver_module, "_init_weights",
                            lambda problem, *_: (1e-47 * np.eye(2), 1e-47 * np.eye(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(data, FitConfig(distance=SQL2, composition=LinearComposition(),
                                    learn_composition=True, steps=5, restarts=1))
        assert err.value.step == 1

    def test_cosine_rejects_zero_norm_records(self):
        ds = vec_dataset([("x", [0.0, 0.0], "a")], dim=2)
        with pytest.raises(ValueError, match="zero-norm"):
            fit(ds, FitConfig(distance=COSINE))

    @pytest.mark.parametrize("config", [
        FitConfig(distance=COSINE),
        FitConfig(distance=COSINE, composition=LinearComposition(), learn_composition=True)],
        ids=["additive", "linear"])
    def test_cosine_zero_norm_error_names_first_zero_record(self, config):
        ds = vec_dataset([("x", [1.0, 0.0], "a"), ("y", [0.0, 0.0], "b"),
                          ("z", [0.0, 0.0], "(a b)")], dim=2)
        table = PrimitiveTable({Symbol("a"): np.ones(2), Symbol("b"): np.ones(2)},
                               LinearComposition(np.eye(2), np.eye(2)))
        calls = [(lambda: fit(ds, config), (1, 2)),
                 (lambda: gradient_check(ds, config, trials=1), (1, 2)),
                 (lambda: objective(table, config, ds), (1, 2)),
                 (lambda: tre_datum(table, config, ds.records[1]), (0,))]
        for call, rows in calls:
            with pytest.raises(ZeroNormError) as err:
                call()
            assert str(err.value) == ("cosine distance is undefined for zero-norm "
                                      "representation in record 'y'")
            assert err.value.rows == rows

    @pytest.mark.parametrize("composition", [ADD, LinearComposition()],
                             ids=["additive", "learned-linear"])
    def test_cosine_zero_prediction_raises_divergence(self, monkeypatch, composition):
        # Force the degenerate start: all-zero parameters make every cosine
        # prediction undefined, so the fit stops at step 0, in its first
        # restart, naming the first record.
        real_init = solver_module._init_params
        calls = {"n": 0}

        def zero_init(problem, seed, restart):
            calls["n"] += 1
            return np.zeros_like(real_init(problem, seed, restart))

        monkeypatch.setattr(solver_module, "_init_params", zero_init)
        ds = vec_dataset([("x", [1.0, 0.0], "a"), ("y", [0.0, 1.0], "(a b)")], dim=2)
        with pytest.raises(DivergenceError) as err:
            fit(ds, FitConfig(distance=COSINE, composition=composition, steps=300, seed=0))
        assert calls["n"] == 1
        assert err.value.step == 0
        assert str(err.value) == "cosine prediction has zero norm at step 0 in record 'x'"

    def test_restart_default_depends_on_learnability(self):
        assert FitConfig(distance=SQL2).restarts == 1
        assert FitConfig(distance=SQL2, composition=LinearComposition(),
                         learn_composition=True).restarts == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(distance=SQL2, steps=0)
        with pytest.raises(ValueError):
            FitConfig(distance=SQL2, learning_rate=-1.0)
        with pytest.raises(ValueError):
            FitConfig(distance=SQL2, learn_composition=True)  # additive weights

    def test_learned_weights_take_no_matrices(self):
        # Learned weights start near the identity, so a fit would ignore
        # the given matrices and its report would evaluate with them.
        with pytest.raises(ValueError, match="identity"):
            FitConfig(distance=SQL2, composition=LinearComposition(np.eye(2), np.eye(2)),
                      learn_composition=True)

    @pytest.mark.parametrize("composition,learns", [
        (ADD, False), (LinearComposition(np.eye(2), np.eye(2)), False),
        (LinearComposition(), True)], ids=["additive", "fixed-linear", "learned-linear"])
    def test_composition_decides_learned_weights(self, hand_instance, composition, learns):
        config = FitConfig(distance=SQL2, composition=composition, steps=5)
        assert config.learn_composition is learns
        assert config.restarts == (5 if learns else 1)
        assert FitConfig(distance=SQL2, composition=composition, learn_composition=learns,
                         steps=5) == config
        report = fit(hand_instance, config)
        assert (report.table.composition_params is not None) is learns
        echoed = report_to_dict(report, config, VectorShape(2))["config"]
        assert (echoed["learn_composition"], echoed["restarts"]) == (learns, config.restarts)

    @pytest.mark.parametrize("composition,given", [
        (ADD, True), (LinearComposition(np.eye(2), np.eye(2)), True),
        (LinearComposition(), False)], ids=["additive", "fixed-linear", "learned-linear"])
    def test_disagreeing_learn_composition_is_refused(self, composition, given):
        with pytest.raises(ValueError, match=f"^learn_composition={given} disagrees"):
            FitConfig(distance=SQL2, composition=composition, learn_composition=given)

    @pytest.mark.parametrize("spec", [SQL2, L1, COSINE], ids=lambda s: s.kind)
    def test_learned_linear_report_needs_no_flag(self, hand_instance, spec):
        rendered = []
        for flag in ({}, {"learn_composition": True}):
            config = FitConfig(distance=spec, composition=LinearComposition(), steps=20,
                               restarts=2, **flag)
            rendered.append(render_report(report_to_dict(fit(hand_instance, config), config,
                                                         VectorShape(2))))
        assert rendered[0] == rendered[1]

    @pytest.mark.parametrize("field", ["learning_rate", "convergence_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(distance=SQL2, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("steps", float("nan")), ("steps", float("inf")), ("steps", 2.5), ("steps", 5.0),
        ("steps", True), ("restarts", True), ("restarts", 1.5), ("seed", 2.0),
        ("seed", False)], ids=str)
    def test_config_integer_settings_refuse_other_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FitConfig(distance=SQL2, **{field: value})

    @pytest.mark.parametrize("field", ["steps", "restarts", "seed"])
    def test_config_stores_numpy_integers_as_int(self, field):
        value = getattr(FitConfig(distance=SQL2, **{field: np.int64(3)}), field)
        assert type(value) is int and value == 3

    def test_numpy_float_learning_rate_fit_renders(self, hand_instance):
        # A float32 setting once fitted and then failed JSON rendering.
        config = FitConfig(distance=SQL2, learning_rate=np.float32(0.5), steps=5)
        report = fit(hand_instance, config)
        rendered = json.loads(render_report(report_to_dict(report, config, VectorShape(2))))
        assert rendered["config"]["learning_rate"] == 0.5

    @pytest.mark.parametrize("spec", [SQL2, COSINE], ids=lambda s: s.kind)
    def test_learned_linear_fit_builds_no_leaf_counts(self, monkeypatch, spec):
        # Building dense leaf counts takes 500 floats per distinct subtree,
        # about 49 MB here; the linear path never reads them.  Under cosine
        # the fit starts from zero parameters, so every prediction is 0 and
        # the first step raises DivergenceError naming the first record,
        # found from the rows' DAG roots.
        data, _ = generate_compositional(GenSpec(num_primitives=500, shape=VectorShape(4),
                                                 num_records=2000, seed=0))
        config = FitConfig(distance=spec, composition=LinearComposition(),
                           learn_composition=True, steps=5, restarts=1)
        if spec is COSINE:
            monkeypatch.setattr(solver_module, "_init_params", lambda problem, seed, restart:
                                np.zeros((len(problem.dag.symbols),) + problem.targets.shape[1:]))
        tracemalloc.start()
        try:
            with (pytest.raises(DivergenceError) if spec is COSINE
                  else contextlib.nullcontext()) as err:
                report = fit(data, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if spec is COSINE:
            assert err.value.step == 0
            assert str(err.value) == (f"cosine prediction has zero norm at step 0 in record "
                                      f"{data.records[0].id!r}")
        else:
            assert report.steps_run == 5
        assert peak < 10e6


class TestRestarts:
    """``converged`` is "stopped before ``config.steps``", the report is the
    restart with the lowest final objective, and a zero-norm cosine
    prediction ends the fit in the restart that meets it."""

    DATA = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=60, noise_sigma=0.1,
                   seed=11)
    CONFIG = FitConfig(distance=L1, steps=3000, seed=1)

    def test_early_stop_is_converged(self):
        report = fit(generate_compositional(self.DATA)[0], self.CONFIG)
        assert report.converged
        assert report.steps_run < self.CONFIG.steps

    def test_exhausted_steps_are_not_converged(self):
        config = dataclasses.replace(self.CONFIG, steps=200, convergence_tol=0.0)
        report = fit(generate_compositional(self.DATA)[0], config)
        assert not report.converged
        assert report.steps_run == 200

    def test_early_stop_at_the_last_step_is_not_converged(self):
        # The early-stop test first holds at step ``stop``: with ``stop``
        # steps the loop ends there for want of steps, with one more it
        # converges there.
        dataset = generate_compositional(self.DATA)[0]
        stop = fit(dataset, self.CONFIG).steps_run
        for steps, converged in ((stop, False), (stop + 1, True)):
            report = fit(dataset, dataclasses.replace(self.CONFIG, steps=steps))
            assert (report.steps_run, report.converged) == (stop, converged)

    @pytest.mark.parametrize("tie", [False, True], ids=["lowest", "tie"])
    def test_report_is_the_restart_with_the_lowest_final_objective(self, monkeypatch, tie):
        # At seed 5 the second of three restarts ends lowest; a tie sets
        # every restart's final objective to 1.0.
        runs, fit_once = [], solver_module._fit_once

        def recorded(*args):
            run = fit_once(*args)
            if tie:
                run = dataclasses.replace(run, trace=run.trace[:-1] + ((run.trace[-1][0], 1.0),))
            runs.append(run)
            return run

        monkeypatch.setattr(solver_module, "_fit_once", recorded)
        dataset = generate_compositional(PIN_DATA["code"])[0]
        config = FitConfig(distance=SQL2, composition=LinearComposition(),
                           learn_composition=True, steps=60, seed=5, restarts=3)
        report = fit(dataset, config)
        finals = [run.trace[-1][1] for run in runs]
        assert len(runs) == 3
        if tie:
            assert finals == [1.0] * 3
        else:
            assert len(set(finals)) == 3 and finals.index(min(finals)) == 1
        best = runs[0] if tie else runs[1]
        assert report.objective_trace == best.trace
        symbols = solver_module._fit_problem(dataset, config).dag.symbols
        assert all(np.array_equal(report.table.entries[sym], best.params[i])
                   for i, sym in enumerate(symbols))
        weights = report.table.composition_params
        assert np.array_equal(weights.left_weights, best.comp.left_weights)
        assert np.array_equal(weights.right_weights, best.comp.right_weights)
        assert not np.array_equal(runs[0].params, runs[1].params)

    @pytest.mark.parametrize("rows,record", [((1,), "y"), ((1, 0), "x")], ids=["y", "x-y"])
    def test_cosine_zero_norm_ends_the_fit_at_its_step(self, monkeypatch, rows, record):
        # Steps 0 to 2 evaluate; step 3 finds ``rows`` of zero norm.  Rows
        # 0 and 1 are the records "x" and "y", so the fit names the first
        # of them in record order, draws no parameters again and runs no
        # second restart.
        calls, keys = {"n": 0}, []
        loss_and_grads, rng = solver_module._loss_and_grads, solver_module._rng

        def zero_norm_at_step_3(problem, params, comp):
            calls["n"] += 1
            if calls["n"] == 4:
                raise ZeroNormError("cosine distance is undefined for a zero-norm operand", rows)
            return loss_and_grads(problem, params, comp)

        def recorded_rng(seed, *args):
            keys.append(args[:2])
            return rng(seed, *args)

        monkeypatch.setattr(solver_module, "_loss_and_grads", zero_norm_at_step_3)
        monkeypatch.setattr(solver_module, "_rng", recorded_rng)
        dataset = vec_dataset([("x", [1.0, 0.0], "a"), ("y", [0.0, 1.0], "(a b)")], dim=2)
        assert solver_module._fit_problem(dataset, FitConfig(COSINE)).rows.first.tolist() == [0, 1]
        with pytest.raises(DivergenceError) as err:
            fit(dataset, FitConfig(distance=COSINE, steps=300, seed=0, restarts=2))
        assert err.value.step == 3
        assert str(err.value) == f"cosine prediction has zero norm at step 3 in record {record!r}"
        assert calls["n"] == 4
        assert keys == [(0, 0), (0, 0)]


class TestNoiseMonotonicity:
    def test_mean_error_increases_with_noise(self):
        sigmas = (0.0, 0.1, 0.3, 1.0)
        means = []
        for sigma in sigmas:
            totals = []
            for seed in range(4):
                data, _ = generate_compositional(
                    GenSpec(num_primitives=5, shape=VectorShape(8), num_records=40,
                            noise_sigma=sigma, seed=seed))
                totals.append(fit(data, FitConfig(distance=SQL2, seed=0)).aggregate)
            means.append(np.mean(totals))
        assert means == sorted(means)
        assert all(a < b for a, b in zip(means, means[1:]))


class TestHomomorphismCheck:
    """Zero aggregate error coincides with the representations composing
    exactly wherever sub-derivations are themselves records."""

    @pytest.fixture()
    def closed_exact_dataset(self):
        rng = np.random.default_rng(8)
        entries = {Symbol(s): rng.normal(0, 1, 4) for s in "abc"}
        table = PrimitiveTable(entries)
        texts = ["a", "b", "c", "(a b)", "(b c)", "((a b) c)", "(a (b c))"]
        rows = []
        for text in texts:
            deriv = parse_derivation(text)
            rows.append((text, eval_compositional(table, ADD, deriv), deriv))
        return Dataset.build(rows, VectorShape(4))

    def test_zero_error_implies_composing_representations(self, closed_exact_dataset):
        report = fit(closed_exact_dataset, FitConfig(distance=SQL2, steps=5000, seed=0))
        assert report.aggregate < 1e-6
        residuals = homomorphism_residuals(closed_exact_dataset, ADD, SQL2)
        assert set(residuals) == {"(a b)", "(b c)", "((a b) c)", "(a (b c))"}
        assert all(v == approx(0.0, abs=1e-18) for v in residuals.values())

    def test_non_compositional_data_has_nonzero_residuals(self):
        ds = vec_dataset([("a", [1.0, 0.0], "a"), ("b", [0.0, 1.0], "b"),
                          ("ab", [5.0, 5.0], "(a b)")], dim=2)
        residuals = homomorphism_residuals(ds, ADD, SQL2)
        assert residuals["ab"] > 1.0


class TestTrivialComposition:
    def test_lookup_composition_achieves_zero_error(self):
        # representations chosen with no compositional structure at all
        rng = np.random.default_rng(14)
        texts = ["a", "b", "c", "(a b)", "((a b) c)"]
        rows = [(text, rng.normal(0, 1, 3), parse_derivation(text)) for text in texts]
        ds = Dataset.build(rows, VectorShape(3))
        table, comp = trivial_composition_table(ds)
        config = FitConfig(distance=SQL2, composition=comp)
        assert objective(table, config, ds) == 0.0

    def test_requires_derivation_closure(self):
        ds = vec_dataset([("ab", [1.0], "(a b)")], dim=1)
        with pytest.raises(ValueError, match="closed"):
            trivial_composition_table(ds)

    def test_requires_injective_oracle(self):
        ds = vec_dataset([("x1", [1.0], "a"), ("x2", [2.0], "a")], dim=1)
        with pytest.raises(ValueError, match="injective"):
            trivial_composition_table(ds)


class TestGradientCheckOperation:
    def test_additive_squared_l2_tight(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=4, shape=VectorShape(5), depth_range=(1, 3),
                    num_records=6, noise_sigma=1.0, seed=3))
        err = gradient_check(data, FitConfig(distance=SQL2, seed=11), trials=10)
        assert err < 1e-6

    def test_linear_l1_away_from_kinks(self):
        data, _ = generate_compositional(
            GenSpec(num_primitives=4, shape=VectorShape(5), depth_range=(1, 3),
                    num_records=6, noise_sigma=1.0, seed=3))
        config = FitConfig(distance=L1, composition=LinearComposition(),
                           learn_composition=True, seed=11)
        assert gradient_check(data, config, trials=10) < 1e-4

    @pytest.mark.parametrize("spec", [SQL2, L1, COSINE], ids=lambda s: s.kind)
    def test_linear_code_matrices_with_shared_subtrees(self, spec):
        # r0 and r2 share one derivation and (a b) recurs inside others, so
        # the backward pass must sum gradients arriving at a shared subtree.
        rng = np.random.default_rng(4)
        texts = ["(a b)", "((a b) c)", "(a b)", "(c (a b))", "((a b) (b c))",
                 "(b c)", "c"]
        data = Dataset.build(
            [(f"r{i}", rng.normal(0, 1, (3, 5)), parse_derivation(text))
             for i, text in enumerate(texts)],
            CodeShape(3, 5))
        config = FitConfig(distance=spec, composition=LinearComposition(),
                           learn_composition=True, seed=11)
        assert gradient_check(data, config, trials=10) < 1e-6

    @pytest.mark.parametrize("spec", [SQL2, L1, COSINE], ids=lambda s: s.kind)
    @pytest.mark.parametrize("learned", [False, True], ids=["additive", "learned_linear"])
    def test_one_percent_error_in_any_entry_is_caught(self, monkeypatch, spec, learned):
        # Criterion 3's data and settings, with one analytic gradient entry
        # at a time scaled by 1.01: every such entry must show.
        data = generate_random(GenSpec(num_primitives=4, shape=VectorShape(5),
                                       depth_range=(1, 3), num_records=6, seed=3))
        config = FitConfig(distance=spec, composition=LinearComposition() if learned else ADD,
                           learn_composition=learned, seed=11)
        real = solver_module._loss_and_grads

        def skewed(block, k):
            def loss_and_grads(problem, params, comp):
                loss, grads = real(problem, params, comp)
                grads = [g.copy() for g in grads]
                grads[block].reshape(-1)[k] *= 1.01
                return loss, grads
            return loss_and_grads

        problem = solver_module._fit_problem(data, config)
        sizes = [len(problem.dag.symbols) * 5] + [5 * 5] * 2 * learned
        for block, size in enumerate(sizes):
            for k in range(size):
                monkeypatch.setattr(solver_module, "_loss_and_grads", skewed(block, k))
                assert gradient_check(data, config, trials=10) > 1e-4, (block, k)

    def test_additive_l1_on_twenty_thousand_records(self):
        # 3.2e5 residuals: the draws must still find points whose residuals
        # keep their signs between x - hv and x + hv.
        data, _ = generate_compositional(
            GenSpec(num_primitives=8, shape=VectorShape(16), depth_range=(1, 4),
                    num_records=20000, noise_sigma=0.1, seed=1))
        assert gradient_check(data, FitConfig(distance=L1), trials=2) < 1e-6

    def test_accepted_l1_draws_cross_no_kink(self, hand_instance, monkeypatch):
        # Additive l1 is linear between kinks, so even over a long step the
        # central difference is exact at every draw the kink test accepts.
        monkeypatch.setattr(solver_module, "GRADCHECK_STEP", 0.05)
        assert gradient_check(hand_instance, FitConfig(distance=L1), trials=100) < 1e-9

    def test_no_trials_is_refused(self, hand_instance):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="^trials must be an integer of at least 1"):
                gradient_check(hand_instance, FitConfig(distance=SQL2), trials=trials)

    @pytest.mark.parametrize("trials", [2.5, float("nan"), True], ids=str)
    def test_non_integer_trials_are_refused(self, hand_instance, trials):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            gradient_check(hand_instance, FitConfig(distance=SQL2), trials=trials)

    @pytest.mark.parametrize("composition,message", [
        (TableComposition(), "cannot optimize through composition kind 'table'"),
        (LinearComposition(np.eye(3), np.eye(3)),
         "composition weights do not match the dataset shape")],
        ids=["table", "3x3-weights-on-dim-2"])
    def test_refuses_what_fit_refuses(self, hand_instance, composition, message):
        config = FitConfig(distance=SQL2, composition=composition)
        for call in (lambda: fit(hand_instance, config),
                     lambda: gradient_check(hand_instance, config, trials=1)):
            with pytest.raises(ValueError) as err:
                call()
            assert type(err.value) is ValueError
            assert str(err.value) == message

    def test_table_is_refused_before_any_step(self, hand_instance, monkeypatch):
        # ``_backward`` has no composition check of its own: ``_fit_problem``
        # refuses a table before ``_loss_and_grads`` is ever called.
        def step(*args):
            raise AssertionError("_loss_and_grads ran on a table composition")
        monkeypatch.setattr(solver_module, "_loss_and_grads", step)
        config = FitConfig(distance=SQL2, composition=TableComposition())
        for call in (lambda: fit(hand_instance, config),
                     lambda: gradient_check(hand_instance, config, trials=1)):
            with pytest.raises(ValueError, match="^cannot optimize through composition kind"):
                call()

    @pytest.mark.parametrize("composition", [ADD, LinearComposition()], ids=["additive", "linear"])
    def test_no_point_clear_of_kinks_is_an_error(self, hand_instance, monkeypatch, composition):
        # A step this long makes some residual change sign on every draw, so
        # every draw is refused; evaluating at the last one would misreport.
        monkeypatch.setattr(solver_module, "GRADCHECK_STEP", 1e6)
        config = FitConfig(distance=L1, composition=composition,
                           learn_composition=composition is not ADD)
        with pytest.raises(ValueError, match="trial 0: no point in 64 draws"):
            gradient_check(hand_instance, config, trials=3)


# Ten records on six distinct leaf-count rows: "((a b) c)" twice, the
# commuted "(a b)"/"(b a)", "((a b) c)"/"(c (b a))" and "(a (a c))"/
# "((a c) a)".  The targets of "(a b)" and "(b a)" are opposite, so their
# unit targets cancel under cosine.  Sorted, the rows are c, b, a, ab, abc
# and aac: row 3 is ab, while record 3 is "(c (b a))", on row abc.
SHARED_TEXTS = ["(a b)", "(b a)", "((a b) c)", "(c (b a))", "((a b) c)", "c", "b", "a",
                "(a (a c))", "((a c) a)"]


def shared_rows_dataset(shape):
    rng = np.random.default_rng(21)
    reps = [rng.normal(0, 1, shape) for _ in SHARED_TEXTS]
    reps[1] = -reps[0]
    return Dataset.build([(f"r{i}", rep, parse_derivation(text))
                          for i, (rep, text) in enumerate(zip(reps, SHARED_TEXTS))],
                         VectorShape(*shape) if len(shape) == 1 else CodeShape(*shape))


SHAPES = pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["vector", "code"])


class TestDistinctCountRows:
    @pytest.mark.parametrize("spec,n_rows", [(SQL2, 6), (COSINE, 6), (L1, 10)],
                             ids=["squared_l2", "cosine", "l1"])
    def test_row_count_and_cancelled_cosine_row(self, spec, n_rows):
        rows = solver_module._build_problem(shared_rows_dataset((4,)), spec.kind, ADD).rows
        assert rows.keys.shape == (n_rows, 3)
        if spec is L1:
            assert rows.weights is None and rows.constant == 0.0
        elif spec is COSINE:
            # The ab row keeps weight 0 and a unit stand-in target.
            assert rows.keys[3].tolist() == [1.0, 1.0, 0.0]
            assert rows.weights[3] == 0.0
            assert np.linalg.norm(rows.targets[3]) == approx(1.0)

    def test_distinct_rows_match_numpy_unique(self):
        rng = np.random.default_rng(8)
        shared = solver_module._build_problem(shared_rows_dataset((4,)), "l1", ADD).counts
        for counts in (shared, rng.integers(0, 3, (500, 4)).astype(float)):
            got = solver_module._distinct_rows(counts)
            expected = np.unique(counts, axis=0, return_index=True, return_inverse=True,
                                 return_counts=True)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b.reshape(a.shape))

    @SHAPES
    @pytest.mark.parametrize("spec", [SQL2, COSINE, L1], ids=lambda s: s.kind)
    def test_loss_and_gradient_equal_per_record_sum(self, shape, spec):
        data = shared_rows_dataset(shape)
        problem = solver_module._build_problem(data, spec.kind, ADD)
        params = np.random.default_rng(5).normal(0, 1, (3,) + shape)
        loss, (grad,) = solver_module._loss_and_grads(problem, params, ADD)

        record_preds = np.tensordot(problem.counts, params, axes=1)
        expected = math.fsum(distances(spec.kind, record_preds, problem.targets).tolist())
        _, record_dpred = _loss_and_dpred(spec.kind, record_preds, problem.targets)
        assert loss == approx(expected, rel=1e-12)
        np.testing.assert_allclose(grad, np.tensordot(problem.counts.T, record_dpred, axes=1),
                                   rtol=1e-12, atol=1e-12)

    @SHAPES
    @pytest.mark.parametrize("spec,learned", [(s, learned) for learned in (False, True)
                                              for s in (SQL2, COSINE, L1)],
                             ids=["squared_l2", "cosine", "l1", "learned_linear-squared_l2",
                                  "learned_linear-cosine", "learned_linear-l1"])
    def test_final_objective_is_objective_of_table(self, shape, spec, learned):
        data = shared_rows_dataset(shape)
        config = FitConfig(distance=spec, steps=300, seed=3)
        if learned:
            config = FitConfig(distance=spec, composition=LinearComposition(),
                               learn_composition=True, steps=300, seed=3, restarts=2)
        report = fit(data, config)
        assert math.fsum(report.per_datum.values()) == approx(report.final_objective,
                                                              rel=1e-12)
        assert report.final_objective == approx(objective(report.table, config, data),
                                                rel=1e-12)

    @SHAPES
    @pytest.mark.parametrize("spec", [SQL2, COSINE], ids=lambda s: s.kind)
    def test_gradient_check(self, shape, spec):
        config = FitConfig(distance=spec, seed=11)
        assert gradient_check(shared_rows_dataset(shape), config, trials=10) < 1e-6

    @pytest.mark.parametrize("zeroed,record,block_rows",
                             [("ab", "r0", None), ("ac", "r5", None), ("ab", "r0", 2),
                              ("ac", "r5", 2)],
                             ids=["ab", "ac", "ab-2-row-blocks", "ac-2-row-blocks"])
    def test_cosine_zero_prediction_names_first_zero_record(self, monkeypatch, zeroed,
                                                            record, block_rows):
        # Entries named in ``zeroed`` start at 0.  The fit must name the
        # first record, in record order, whose prediction is then 0, found
        # record by record: with "ab", "(a b)", whose row is the cancelled
        # cosine row.  In 2-row blocks that row lies in the second block
        # and "b"'s zero row in the first, so the zero rows of every block
        # must be searched; the error must equal the fit's in one block.
        data = shared_rows_dataset((4,))
        config = FitConfig(distance=COSINE, steps=20, seed=0)
        real_init = solver_module._init_params
        start = {}

        def init(problem, seed, restart):
            params = real_init(problem, seed, restart)
            for i, sym in enumerate(problem.dag.symbols):
                if sym.name in zeroed:
                    params[i] = 0.0
            start.update(zip(problem.dag.symbols, params.copy()))
            return params

        monkeypatch.setattr(solver_module, "_init_params", init)
        errors = []
        for block in (None, block_rows):
            if block is not None:
                monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 4 * block)
            with pytest.raises(DivergenceError) as err:
                fit(data, config)
            errors.append((err.value.step, str(err.value)))
        values = eval_compositional(PrimitiveTable(start), ADD,
                                    [rec.derivation for rec in data])
        assert next(rec.id for rec, value in zip(data, values) if not value.any()) == record
        assert errors == [(0, f"cosine prediction has zero norm at step 0 in record "
                              f"{record!r}")] * 2


def repeated_roots_dataset(shape):
    """``shared_rows_dataset`` with record 4 the opposite of record 2, so
    that under linear composition the two "((a b) c)" records are one root
    row whose unit targets cancel under cosine."""
    data = shared_rows_dataset(shape)
    records = list(data.records)
    records[4] = Record("r4", -records[2].representation, records[4].derivation)
    return Dataset(tuple(records), data.shape)


class TestDistinctRootRows:
    @SHAPES
    @pytest.mark.parametrize("spec", [SQL2, COSINE, L1], ids=lambda s: s.kind)
    def test_loss_and_gradients_equal_per_record_path(self, shape, spec):
        problem = solver_module._build_problem(repeated_roots_dataset(shape), spec.kind,
                                               LinearComposition())
        dag, side = problem.dag, shape[0]
        assert len(problem.rows.targets) == (10 if spec is L1 else 9)
        rng = np.random.default_rng(5)
        params = rng.normal(0, 1, (3,) + shape)
        comp = LinearComposition(np.eye(side) + 0.5 * rng.normal(0, 1, (side, side)),
                                 np.eye(side) + 0.5 * rng.normal(0, 1, (side, side)))
        loss, (grad, *weights) = solver_module._loss_and_grads(problem, params, comp)

        values = solver_module._forward(dag, params, comp)
        ref_loss, dpred = _loss_and_dpred(spec.kind, values[dag.roots], problem.targets)
        seed = solver_module._flat_index(dag.roots, math.prod(shape))
        ref_grad, *ref_weights = solver_module._backward(problem, values, comp, seed, dpred)
        if spec is L1:
            assert loss == ref_loss
            assert all(np.array_equal(a, b)
                       for a, b in zip((grad, *weights), (ref_grad, *ref_weights)))
            return
        assert loss == approx(ref_loss, rel=1e-12)
        for got, expected in zip((grad, *weights), (ref_grad, *ref_weights)):
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("spec", [SQL2, COSINE, L1], ids=lambda s: s.kind)
    def test_fixed_weights_sum_over_distinct_roots(self, spec):
        # A problem built for fixed weights groups records by DAG root, as a
        # learned one does: "(a b)" and "(b a)" share leaf counts, not a root.
        data = shared_rows_dataset((4,))
        rng = np.random.default_rng(5)
        params = rng.normal(0, 1, (3, 4))
        comp = LinearComposition(np.eye(4) + 0.5 * rng.normal(0, 1, (4, 4)),
                                 np.eye(4) + 0.5 * rng.normal(0, 1, (4, 4)))
        problem = solver_module._build_problem(data, spec.kind, comp)
        loss, grads = solver_module._loss_and_grads(problem, params, comp)
        errors = solver_module._record_errors(problem, problem.predict(params, comp))
        assert loss == approx(math.fsum(errors), rel=1e-12)
        dag = problem.dag
        values = solver_module._forward(dag, params, comp)
        _, dpred = _loss_and_dpred(spec.kind, values[dag.roots], problem.targets)
        expected = solver_module._backward(problem, values, comp,
                                           solver_module._flat_index(dag.roots, 4), dpred)
        assert len(grads) == len(expected) == 1
        np.testing.assert_allclose(grads[0], expected[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(expected[0]).max())

    @pytest.mark.parametrize("zeroed,record", [("ab", "r0"), ("ac", "r5")], ids=["ab", "ac"])
    def test_cosine_zero_prediction_names_first_zero_record(self, monkeypatch, zeroed,
                                                            record):
        # As the additive test of that name, under learned linear
        # composition: the fit names the first record, in record order,
        # that predicts 0 at the start, found record by record.
        data = repeated_roots_dataset((4,))
        config = FitConfig(distance=COSINE, composition=LinearComposition(),
                           learn_composition=True, steps=20, seed=0, restarts=1)
        real_init = solver_module._init_params
        start = {}

        def init(problem, seed, restart):
            params = real_init(problem, seed, restart)
            for i, sym in enumerate(problem.dag.symbols):
                if sym.name in zeroed:
                    params[i] = 0.0
            start.update(zip(problem.dag.symbols, params.copy()))
            start["weights"] = solver_module._init_weights(problem, seed, restart)
            return params

        monkeypatch.setattr(solver_module, "_init_params", init)
        with pytest.raises(DivergenceError) as err:
            fit(data, config)
        comp = LinearComposition(*start.pop("weights"))
        values = eval_compositional(PrimitiveTable(start), comp,
                                    [rec.derivation for rec in data])
        assert next(rec.id for rec, value in zip(data, values) if not value.any()) == record
        assert err.value.step == 0
        assert str(err.value) == f"cosine prediction has zero norm at step 0 in record {record!r}"


PIN_DATA = {
    "vector": GenSpec(num_primitives=5, shape=VectorShape(6), num_records=200,
                      noise_sigma=0.1, seed=11),
    "code": GenSpec(num_primitives=4, shape=CodeShape(3, 4), num_records=150,
                    noise_sigma=0.1, seed=12),
}
# (data, distance, composition, sha256 of the rendered report without
# diagnostics.final_objective, final_objective).  The figures pin the
# floating-point results of one numpy and BLAS build: the steps multiply
# leaf counts by parameters, whose rounding a different matrix kernel may
# change.
PINNED_REPORTS = [
    ("vector", "squared_l2", "additive",
     "e748f21fe1b1b10d53ef915f2c8274f2e580e73c8dc5d6add5be88bb162acfb2", 39.20195854971146),
    ("vector", "l1", "additive",
     "a396d02d1f179c50fef5f3544288157a57a277a3714fe1dec0751ec6bb1fa18e", 91.19472420633721),
    ("vector", "cosine", "additive",
     "ff4e1420491f1dbd6ab67c829217d1a1aa7258309d54564d0b9da6ea2cf9e90b", 0.6810926090158909),
    ("code", "squared_l2", "additive",
     "dff137fd999b192f5c7d8170dfaec0a60ffe3312185d902f3640d7271a4406be", 69.58550009942286),
    ("code", "l1", "additive",
     "41152c43d4b914e824baf52bda95f57c7a5a68c4cc7b5b7e4769d1c835468181", 135.64233324180816),
    ("code", "cosine", "additive",
     "7a476de0f723a60c6a9ee856f7f9c42ee71f7f73ef038e9c9a6526e6b27718c6", 0.3150180733250677),
    ("code", "squared_l2", "linear",
     "e3950d5f1a8c9d9bd073425e92bcddc5f8058283f9dae639b5f4649604294d17", 547.5941567207589),
    ("code", "l1", "linear",
     "7bb512f02d1900c1441c15120667056d62e5fd73dcb449c64a62632a2bc94d38", 536.8445641446258),
    ("code", "cosine", "linear",
     "225b4a036bb847499228e8d44348e9e4f03b4b8bee28068e6b46184085e64b76", 0.3367670214998454),
    # Two restarts at seed 4: the second ends lower (squared_l2 551.69
    # against 554.73, l1 537.50 against 537.99), so the report comes from
    # restart 1's parameters and weights.
    ("code", "squared_l2", "linear-2-restarts",
     "2cdedc8100deb6df7f773041d9a89f96ba88edffff980ab78914a93f29ea8eab", 551.6945572499585),
    ("code", "l1", "linear-2-restarts",
     "39ca9d6b75df314f3a1c5077880ad8e0ec88a5c8ff9935bfa8287ded9af52d37", 537.4962774530795),
]


class TestPinnedSteps:
    @pytest.mark.parametrize("data", PIN_DATA)
    def test_additive_l1_gradient_is_counts_times_signs(self, data):
        dataset = generate_compositional(PIN_DATA[data])[0]
        problem = solver_module._build_problem(dataset, "l1", ADD)
        params = np.random.default_rng(4).normal(0, 1, (len(problem.dag.symbols),)
                                                 + dataset.shape.array_shape())
        _, (grad,) = solver_module._loss_and_grads(problem, params, ADD)
        counts, n = problem.counts, len(dataset)
        signs = np.sign(counts @ params.reshape(len(params), -1)
                        - problem.targets.reshape(n, -1))
        assert np.array_equal(grad, (counts.T @ signs).reshape(params.shape))

    @pytest.mark.parametrize("data,kind,composition,digest,final_objective", PINNED_REPORTS,
                             ids=[f"{d}-{k}-{c}" for d, k, c, *_ in PINNED_REPORTS])
    def test_report_is_pinned(self, data, kind, composition, digest, final_objective):
        dataset = generate_compositional(PIN_DATA[data])[0]
        if composition == "additive":
            config = FitConfig(distance=DistanceSpec(kind), steps=300, seed=1)
        else:
            seed, restarts = (4, 2) if composition == "linear-2-restarts" else (1, 1)
            config = FitConfig(distance=DistanceSpec(kind), composition=LinearComposition(),
                               learn_composition=True, steps=100, seed=seed, restarts=restarts)
        rendered = report_to_dict(fit(dataset, config), config, dataset.shape)
        assert rendered["diagnostics"].pop("final_objective") == approx(final_objective,
                                                                         rel=1e-12)
        assert hashlib.sha256(render_report(rendered).encode()).hexdigest() == digest


class TestLeastSquaresStep:
    @pytest.mark.parametrize("distance", [1.0, 1e-1, 1e-3])
    @pytest.mark.parametrize("data", PIN_DATA)
    def test_step_matches_per_record_reference(self, data, distance):
        # A point at Frobenius ``distance`` from the exact optimum, where the
        # objective exceeds its minimum by about distance².
        dataset = generate_compositional(PIN_DATA[data])[0]
        problem = solver_module._build_problem(dataset, "squared_l2", ADD)
        optimum = closed_form_fit(dataset).table.entries
        direction = np.random.default_rng(7).normal(0, 1, (len(optimum),)
                                                    + dataset.shape.array_shape())
        params = (np.stack([optimum[sym] for sym in problem.dag.symbols])
                  + distance * direction / np.linalg.norm(direction))
        loss, (grad,) = solver_module._loss_and_grads(problem, params, ADD)
        expected = solver_module._record_errors(problem, problem.predict(params, ADD))
        assert loss == approx(math.fsum(expected), rel=1e-12)

        counts, n = problem.counts, len(dataset)
        preds, targets = counts @ params.reshape(len(params), -1), problem.targets.reshape(n, -1)
        # Near the optimum the reference is a difference of large sums: its
        # rounding scales with the terms' magnitudes, not with the gradient.
        terms = 2.0 * counts.T @ (np.abs(preds) + np.abs(targets))
        np.testing.assert_allclose(grad.reshape(len(params), -1),
                                   2.0 * counts.T @ (preds - targets),
                                   rtol=1e-12, atol=1e-12 * terms.max())

    def test_rank_deficient_counts(self):
        # a and b always occur together: the counts have rank 2 of 3, and
        # the quadratic is flat along a - b.
        rng = np.random.default_rng(9)
        data = Dataset.build([(f"r{i}", rng.normal(0, 1, 4), parse_derivation(text))
                              for i, text in enumerate(["(a b)", "((a b) c)", "c"] * 3)],
                             VectorShape(4))
        assert np.linalg.matrix_rank(
            solver_module._build_problem(data, "squared_l2", ADD).counts) == 2
        config = FitConfig(distance=SQL2, steps=2000, seed=2)
        report = fit(data, config)
        assert report.final_objective == approx(objective(report.table, config, data),
                                                rel=1e-12)
        assert gradient_check(data, config, trials=10) < 1e-6


class TestRowBlocks:
    @pytest.mark.parametrize("kind", ["l1", "cosine"])
    @pytest.mark.parametrize("data", PIN_DATA)
    def test_blocked_step_matches_one_block(self, monkeypatch, data, kind):
        # Blocks of 7 rows: at least 3 of them on every input here.
        dataset = generate_compositional(PIN_DATA[data])[0]
        problem = solver_module._build_problem(dataset, kind, ADD)
        params = np.random.default_rng(4).normal(0, 1, (len(problem.dag.symbols),)
                                                 + dataset.shape.array_shape())
        width = math.prod(dataset.shape.array_shape())
        assert len(problem.rows.targets) > 2 * 7
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 1 << 40)
        one_loss, (one_grad,) = solver_module._loss_and_grads(problem, params, ADD)
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 7 * width)
        loss, (grad,) = solver_module._loss_and_grads(problem, params, ADD)
        if kind == "l1":
            counts, n = problem.counts, len(dataset)
            signs = np.sign(counts @ params.reshape(len(params), -1)
                            - problem.targets.reshape(n, -1))
            assert np.array_equal(grad, (counts.T @ signs).reshape(params.shape))
        assert loss == approx(one_loss, rel=1e-12)
        np.testing.assert_allclose(grad, one_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(one_grad).max())

    def test_zero_norm_error_names_global_rows(self, monkeypatch):
        # In 2-row blocks, the only zero prediction (row "a") lies past the
        # first block, so a block-local index would differ from its row.
        problem = solver_module._build_problem(shared_rows_dataset((4,)), "cosine", ADD)
        params = np.random.default_rng(6).normal(0, 1, (3, 4))
        params[[sym.name for sym in problem.dag.symbols].index("a")] = 0.0
        zero = np.flatnonzero(~(problem.rows.keys @ params).any(axis=1)).tolist()
        assert zero and min(zero) >= 2
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 4 * 2)
        with pytest.raises(ZeroNormError) as err:
            solver_module._loss_and_grads(problem, params, ADD)
        assert list(err.value.rows) == zero

    @pytest.mark.parametrize("data", PIN_DATA)
    def test_short_last_block_keeps_the_l1_gradient_bits(self, monkeypatch, data):
        # Blocks of 9 rows: the last of 200 or 150 rows holds 2 or 6.
        dataset = generate_compositional(PIN_DATA[data])[0]
        problem = solver_module._build_problem(dataset, "l1", ADD)
        params = np.random.default_rng(5).normal(0, 1, (len(problem.dag.symbols),)
                                                 + dataset.shape.array_shape())
        rows, width = len(problem.rows.targets), math.prod(dataset.shape.array_shape())
        assert rows > 2 * 9 and rows % 9
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 1 << 40)
        one_loss, (one_grad,) = solver_module._loss_and_grads(problem, params, ADD)
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 9 * width)
        loss, (grad,) = solver_module._loss_and_grads(problem, params, ADD)
        assert grad.tobytes() == one_grad.tobytes()
        assert loss == approx(one_loss, rel=1e-12)

    def test_zero_norm_row_in_the_second_block_ends_the_fit(self, monkeypatch):
        dataset = shared_rows_dataset((4,))
        problem = solver_module._build_problem(dataset, "cosine", ADD)
        a = [sym.name for sym in problem.dag.symbols].index("a")
        params = np.random.default_rng(6).normal(0, 1, (3, 4))
        params[a] = 0.0
        (zero,) = np.flatnonzero(~(problem.rows.keys @ params).any(axis=1)).tolist()
        block = zero // 2 + 1
        assert block <= zero < 2 * block
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 4 * block)
        with pytest.raises(ZeroNormError) as err:
            solver_module._loss_and_grads(problem, params, ADD)
        assert err.value.rows == (zero,)

        real_init = solver_module._init_params

        def zero_a(problem, seed, restart):
            params = real_init(problem, seed, restart)
            params[a] = 0.0
            return params

        # Only record "r7", derivation "a", predicts 0.
        monkeypatch.setattr(solver_module, "_init_params", zero_a)
        config = FitConfig(distance=COSINE, steps=20, seed=1)
        errors = []
        for block_values in (4 * block, 1 << 40):
            monkeypatch.setattr(solver_module, "_BLOCK_VALUES", block_values)
            with pytest.raises(DivergenceError) as err:
                fit(dataset, config)
            errors.append((err.value.step, str(err.value)))
        assert errors == [(0, "cosine prediction has zero norm at step 0 in record 'r7'")] * 2

    def test_l1_report_does_not_depend_on_block_count(self, monkeypatch):
        # 5000 dim-16 records: 3 blocks at the default size.
        dataset = generate_compositional(GenSpec(
            num_primitives=8, shape=VectorShape(16), num_records=5000, noise_sigma=0.1,
            seed=13))[0]
        assert 5000 * 16 > 2 * solver_module._BLOCK_VALUES
        config = FitConfig(distance=L1, steps=100, seed=1)

        def rendered():
            out = report_to_dict(fit(dataset, config), config, dataset.shape)
            return out["diagnostics"].pop("final_objective"), render_report(out)

        blocked = rendered()
        monkeypatch.setattr(solver_module, "_BLOCK_VALUES", 1 << 40)
        one_block = rendered()
        assert blocked[1] == one_block[1]
        assert blocked[0] == approx(one_block[0], rel=1e-12)


def reference_rows(problem):
    """``problem.rows``' targets, weights, norms and constant, each group's
    sum taken by a 2-D ``np.add.at`` over whole rows."""
    flat = problem.targets.reshape(len(problem.targets), -1)
    additive = isinstance(problem.comp, AdditiveComposition)
    _, first, inverse, sizes = solver_module._distinct_rows(
        problem.counts if additive else problem.dag.roots[:, None])
    sums = np.zeros((len(sizes), flat.shape[1]))
    if problem.kind == "squared_l2":
        np.add.at(sums, inverse, flat)
        means = sums / sizes[:, None]
        scatter = flat - means[inverse]
        return means, sizes, None, math.fsum((scatter * scatter).sum(axis=1).tolist())
    units = flat / _row_norms(flat)[:, None]
    np.add.at(sums, inverse, units)
    weights = _row_norms(sums)
    cancelled = weights == 0.0
    sums[cancelled] = units[first[cancelled]]
    return sums, weights, _row_norms(sums), math.fsum((sizes - weights).tolist())


class TestRowSums:
    @pytest.mark.parametrize("comp", [ADD, LinearComposition()], ids=["additive", "linear"])
    @pytest.mark.parametrize("kind", ["squared_l2", "cosine"])
    def test_bit_identical_to_whole_row_scatter(self, kind, comp):
        dataset = generate_compositional(PIN_DATA["code"])[0]
        problem = solver_module._build_problem(dataset, kind, comp)
        rows = problem.rows
        assert len(rows.targets) < len(dataset)
        expected = reference_rows(problem)
        got = (rows.targets, rows.weights, rows.norms, rows.constant)
        assert (got[2] is None) == (expected[2] is None)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected) if b is not None)


def reference_backward(dag, values, comp, upstream, learn_weights):
    """``_backward`` as one Python add per edge, in its documented order:
    the roots in record order, then the levels from the highest down, each
    adding its left-child block and then its right-child block."""
    lw, rw = comp.left_weights, comp.right_weights
    grads = np.zeros_like(values)
    for k, root in enumerate(dag.roots):
        grads[root] += upstream[k]
    shape = (len(values), values.shape[1], -1)
    cols, gcols = values.reshape(shape), grads.reshape(shape)
    grad_lw, grad_rw = np.zeros_like(lw), np.zeros_like(rw)
    for lo, hi in reversed(dag.levels):
        g = gcols[lo:hi]
        for weights, children in ((lw, dag.left[lo:hi]), (rw, dag.right[lo:hi])):
            for child, row in zip(children, np.matmul(weights.T, g)):
                gcols[child] += row
        if learn_weights:
            grad_lw += np.tensordot(g, cols[dag.left[lo:hi]], axes=([0, 2], [0, 2]))
            grad_rw += np.tensordot(g, cols[dag.right[lo:hi]], axes=([0, 2], [0, 2]))
    return grads[:len(dag.symbols)], (grad_lw, grad_rw)


class TestBackwardOrder:
    # (a b) and ((a b) c) are roots and children too, (a b) of parents at
    # two heights, and a, b and c are children of parents at several heights.
    TEXTS = ["(a b)", "((a b) c)", "(c (a b))", "((a b) (b c))", "(((a b) c) a)",
             "c", "(a (b (c a)))", "((a b) c)", "(((a b) c) (a b))"]
    # Plus a 10-leaf left comb over "(((a b) c) a)": nine levels, the lowest
    # three shared with TEXTS.
    DEEP_TEXTS = TEXTS + ["(((((((((a b) c) a) b) c) a) b) c) a)"]

    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["vector", "code"])
    @pytest.mark.parametrize("learn_weights", [True, False])
    def test_bit_identical_to_per_edge_loop(self, shape, learn_weights):
        rng = np.random.default_rng(7)
        dag = solver_module._compile([parse_derivation(t) for t in self.TEXTS])
        side = shape[0]
        comp = LinearComposition(rng.normal(0, 1, (side, side)),
                                 rng.normal(0, 1, (side, side)))
        values = solver_module._forward(dag, rng.normal(0, 1, (len(dag.symbols),) + shape),
                                        comp)
        upstream = rng.normal(0, 1, (len(self.TEXTS),) + shape)
        problem = solver_module._Problem(dag, values[dag.roots], "l1",
                                         LinearComposition() if learn_weights else comp)
        seed = solver_module._flat_index(dag.roots, math.prod(shape))
        params, *weights = solver_module._backward(problem, values, comp, seed, upstream)
        ref_params, ref_weights = reference_backward(dag, values, comp, upstream,
                                                     learn_weights)
        assert np.array_equal(params, ref_params)
        if learn_weights:
            assert all(np.array_equal(w, r) for w, r in zip(weights, ref_weights))
        else:
            assert weights == []

    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["vector", "code"])
    @pytest.mark.parametrize("learn_weights", [True, False])
    def test_deep_dag_bit_identical_to_per_edge_loop(self, shape, learn_weights):
        rng = np.random.default_rng(8)
        dag = solver_module._compile([parse_derivation(t) for t in self.DEEP_TEXTS])
        assert len(dag.levels) == 9
        side = shape[0]
        comp = LinearComposition(rng.normal(0, 1, (side, side)),
                                 rng.normal(0, 1, (side, side)))
        values = solver_module._forward(dag, rng.normal(0, 1, (len(dag.symbols),) + shape),
                                        comp)
        upstream = rng.normal(0, 1, (len(self.DEEP_TEXTS),) + shape)
        problem = solver_module._Problem(dag, values[dag.roots], "l1",
                                         LinearComposition() if learn_weights else comp)
        seed = solver_module._flat_index(dag.roots, math.prod(shape))
        grads = solver_module._backward(problem, values, comp, seed, upstream)
        ref_params, ref_weights = reference_backward(dag, values, comp, upstream,
                                                     learn_weights)
        expected = (ref_params, *ref_weights) if learn_weights else (ref_params,)
        assert len(grads) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(grads, expected))

    def deep_dataset(self, shape):
        rng = np.random.default_rng(9)
        return Dataset.build([(f"r{i}", rng.normal(0, 1, shape), parse_derivation(t))
                              for i, t in enumerate(self.DEEP_TEXTS)],
                             VectorShape(*shape) if len(shape) == 1 else CodeShape(*shape))

    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["vector", "code"])
    @pytest.mark.parametrize("kind", ["l1", "squared_l2"])
    def test_loss_and_grads_bit_identical_to_per_edge_loop(self, shape, kind):
        # l1 sums over the records, so the root of "((a b) c)" comes twice;
        # squared_l2 sums over the distinct roots.
        problem = solver_module._build_problem(self.deep_dataset(shape), kind,
                                               LinearComposition())
        dag, rows, side = problem.dag, problem.rows, shape[0]
        roots = dag.roots[rows.first]
        assert (len(set(roots.tolist())) < len(roots)) == (kind == "l1")
        rng = np.random.default_rng(10)
        params = rng.normal(0, 1, (len(dag.symbols),) + shape)
        comp = LinearComposition(rng.normal(0, 1, (side, side)),
                                 rng.normal(0, 1, (side, side)))
        _, grads = solver_module._loss_and_grads(problem, params, comp)
        values = solver_module._forward(dag, params, comp)
        _, upstream = _loss_and_dpred(kind, values[roots], rows.targets, rows.weights,
                                      rows.norms)
        ref_params, ref_weights = reference_backward(dataclasses.replace(dag, roots=roots),
                                                     values, comp, upstream, True)
        assert len(grads) == 3
        assert all(np.array_equal(a, b) for a, b in zip(grads, (ref_params, *ref_weights)))

    def test_one_fit_builds_the_level_indices_once(self, monkeypatch):
        # Each of the two restarts evaluates steps 0 to 5; the rows' roots'
        # index and the 9 levels' indices belong to the problem, built once.
        # l1 rows build no index.
        data = self.deep_dataset((3, 5))
        calls = {"index": 0, "step": 0}
        flat_index, loss_and_grads = solver_module._flat_index, solver_module._loss_and_grads

        def counted_index(*args):
            calls["index"] += 1
            return flat_index(*args)

        def counted_step(*args):
            calls["step"] += 1
            return loss_and_grads(*args)

        monkeypatch.setattr(solver_module, "_flat_index", counted_index)
        monkeypatch.setattr(solver_module, "_loss_and_grads", counted_step)
        fit(data, FitConfig(distance=L1, composition=LinearComposition(),
                            learn_composition=True, steps=5, restarts=2, convergence_tol=0.0))
        assert calls["step"] == 2 * 6
        assert calls["index"] == 1 + 9
