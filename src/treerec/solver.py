"""Fitting explicitly compositional approximations to observed representations.

Given records of (representation, derivation) pairs, the solver assigns one
parameter vector to every primitive symbol and evaluates derivations
bottom-up: a leaf produces its parameter, an internal node composes its
children's values.  The parameters (and, optionally, the weight matrices of a
linear composition) are chosen to minimize the summed distance between each
record's stored representation and its composed prediction.  The per-record
distance at the optimum is that record's tree reconstruction error; the
dataset score is the mean.

``fit`` minimizes with full-batch Adam; ``closed_form_fit`` solves the
additive / squared-L2 case exactly by SVD least squares and serves as an
independent oracle for the iterative path.

``fit`` and ``gradient_check`` evaluate the objective through
``_loss_and_grads``, which sums over ``_Problem.rows``, the weighted groups
of records that share a prediction: a distinct leaf-count row under additive
composition, in blocks of at most ``_BLOCK_VALUES`` values in two buffers per
call, and a distinct DAG root under linear (a record under l1).  That sum,
under l1 and squared_l2 flat over coordinates, may differ in the last bits
from the sum of the per-record errors.  Every per-record error is
``_record_errors`` scoring one ``_Problem.predict`` pass over the records'
DAG, which a ``Dataset`` compiles once, with its stacked values, on first use.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .derivation import Derivation, Leaf, Node, Symbol, _compile, _Dag, format_derivation
from .space import (
    AdditiveComposition,
    CodeShape,
    CompositionSpec,
    DistanceSpec,
    LinearComposition,
    Shape,
    ShapeMismatchError,
    TableComposition,
    VectorShape,
    ZeroNormError,
    _integer,
    _loss_and_dpred,
    _real,
    _row_norms,
    composes,
    distances,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EARLY_STOP_WINDOW = 50
GRADCHECK_STEP = 1e-5
INIT_SCALE = 0.01
_SEED_MASK = (1 << 64) - 1
_BLOCK_VALUES = 1 << 15


class MissingPrimitiveError(KeyError):
    """A derivation leaf has no entry in the primitive table."""

    def __init__(self, symbol: Symbol):
        super().__init__(f"no parameter entry for primitive {symbol.name!r}")
        self.symbol = symbol


class DivergenceError(RuntimeError):
    """The objective became non-finite during optimization."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"objective became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class Record:
    id: str
    representation: np.ndarray
    derivation: Derivation


@dataclass(frozen=True)
class Dataset:
    """Non-empty list of records sharing one representation shape; the one
    record check.  The first faulty record (duplicate id, wrong shape or a
    non-finite value) raises a ValueError whose ``record`` is its index.
    Derivations are compiled and values stacked, as float64, on first use and
    kept.  Fitting, analysis, ``write_dataset``, ``trivial_composition_table``
    and ``homomorphism_residuals`` read that one stack, so a record array
    changed in place after that is neither fit nor written."""

    records: tuple[Record, ...]
    shape: Shape

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise ValueError("dataset must contain at least one record")
        # Ids and shapes record by record, then finiteness in one call over
        # the records before the first fault, which a non-finite value there
        # precedes.
        expected = self.shape.array_shape()
        seen: set[str] = set()
        fault, checked = None, len(records)
        for k, rec in enumerate(records):
            if rec.id in seen:
                fault = ValueError(f"duplicate record id {rec.id!r}")
            elif (got := np.shape(rec.representation)) != expected:
                fault = ShapeMismatchError(
                    f"record {rec.id!r}: expected array of shape {expected}, got {got}")
            if fault is not None:
                fault.record = checked = k
                break
            seen.add(rec.id)
        values = np.array([rec.representation for rec in records[:checked]], dtype=np.float64)
        finite = np.isfinite(values.reshape(checked, math.prod(expected))).all(axis=1)
        if not finite.all():
            k = int(finite.argmin())
            fault = ValueError(f"record {records[k].id!r}: representation values must be finite")
            fault.record = k
        if fault is not None:
            raise fault

    @cached_property
    def _dag(self) -> _Dag:
        return _compile(rec.derivation for rec in self.records)

    @cached_property
    def _values(self) -> np.ndarray:
        values = np.array([rec.representation for rec in self.records], dtype=np.float64)
        values.flags.writeable = False  # every fit and evaluation shares it
        return values

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @staticmethod
    def build(rows: Iterable[tuple[str, object, Derivation]], shape: Shape) -> "Dataset":
        records = tuple(
            Record(rid, np.asarray(rep, dtype=np.float64), deriv) for rid, rep, deriv in rows
        )
        return Dataset(records, shape)


@dataclass(frozen=True)
class PrimitiveTable:
    """Learned parameter value per primitive, plus optional linear weights."""

    entries: dict[Symbol, np.ndarray]
    composition_params: LinearComposition | None = None


def _learns_weights(comp: CompositionSpec) -> bool:
    """Whether fitting learns ``comp``'s weights: a linear composition without matrices."""
    return isinstance(comp, LinearComposition) and not comp.has_weights


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for ``fit``.

    The optimizer itself is inherent to nothing in the data: defaults here
    (Adam, lr 0.01, 1000 steps) are chosen for robustness across the cosine /
    l1 / squared-L2 objectives without per-dataset tuning.  The composition
    decides ``learn_composition``: a linear one without matrices learns its
    weights, which start near the identity (see ``fit``); a value given that
    disagrees is refused.  ``restarts`` defaults to 1, or 5 when the weights
    are learned.
    """

    distance: DistanceSpec
    composition: CompositionSpec = AdditiveComposition()
    learn_composition: bool | None = None
    steps: int = 1000
    learning_rate: float = 0.01
    seed: int = 0
    convergence_tol: float = 1e-8
    restarts: int | None = None

    def __post_init__(self):
        learns = _learns_weights(self.composition)
        if self.learn_composition not in (None, learns):
            raise ValueError(f"learn_composition={self.learn_composition!r} disagrees with the "
                             f"composition: learned weights start from the identity, so only "
                             f"a linear composition without matrices learns them")
        object.__setattr__(self, "learn_composition", learns)
        if self.restarts is None:
            object.__setattr__(self, "restarts", 5 if learns else 1)
        for name, check, bound in (("steps", _integer, 1), ("restarts", _integer, 1),
                                   ("seed", _integer, None), ("learning_rate", _real, True),
                                   ("convergence_tol", _real, False)):
            object.__setattr__(self, name, check(name, getattr(self, name), bound))


@dataclass(frozen=True)
class TreReport:
    """Result of a fit: per-record errors, their mean, the table; ``diagnostics`` is empty."""

    per_datum: dict[str, float]
    aggregate: float
    table: PrimitiveTable
    objective_trace: tuple[tuple[int, float], ...]
    converged: bool
    diagnostics: tuple[str, ...] = ()

    @property
    def steps_run(self) -> int:
        return self.objective_trace[-1][0]

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1][1]


def eval_compositional(table: PrimitiveTable, comp: CompositionSpec,
                       d: Derivation | Sequence[Derivation]) -> np.ndarray:
    """Bottom-up evaluation: leaves read the table, nodes compose children.

    ``d`` is one derivation, whose value is returned, or a sequence of
    derivations, whose values are returned stacked along a new first axis.
    Subtrees shared within or between derivations are evaluated once.  A
    linear composition without matrices takes the table's.
    """
    single = isinstance(d, (Leaf, Node))
    dag = _compile([d] if single else d)
    if not len(dag.roots):
        raise ValueError("no derivations to evaluate")
    comp = _with_weights(comp, table)
    values = _forward(dag, _table_params(table, dag.symbols), comp)[dag.roots]
    return values[0] if single else values


def _record_errors(problem: _Problem, preds: np.ndarray) -> list[float]:
    """Per-record distances of ``problem``'s targets to their predictions ``preds``."""
    return distances(problem.kind, problem.targets, preds).tolist()


def _with_weights(comp: CompositionSpec, table: PrimitiveTable) -> CompositionSpec:
    """``comp``, or the table's weights for a linear one without matrices."""
    if not _learns_weights(comp):
        return comp
    if table.composition_params is None:
        raise ValueError("linear composition weights are neither given nor in the table")
    return table.composition_params


def _table_errors(table: PrimitiveTable, comp: CompositionSpec, kind: str,
                  dataset: Dataset) -> list[float]:
    """Per-record ``kind`` errors of ``dataset``'s records at ``table``."""
    comp = _with_weights(comp, table)
    problem = _build_problem(dataset, kind, comp)
    return _record_errors(problem, problem.predict(
        _table_params(table, problem.dag.symbols, problem.targets.shape[1:]), comp))


def tre_datum(table: PrimitiveTable, config: FitConfig, record: Record) -> float:
    """Distance between ``record``, checked as a one-record ``Dataset``, and its prediction."""
    dims = np.shape(record.representation)
    shape = CodeShape(*dims) if len(dims) == 2 else VectorShape(math.prod(dims))
    return _table_errors(table, config.composition, config.distance.kind,
                         Dataset((record,), shape))[0]


def objective(table: PrimitiveTable, config: FitConfig, dataset: Dataset) -> float:
    """Sum (not mean) of per-record errors at the current table."""
    return math.fsum(_table_errors(table, config.composition, config.distance.kind, dataset))


# -- internal optimization machinery -----------------------------------------


def _rng(seed: int, *keys: int) -> np.random.Generator:
    """``seed``'s stream under ``keys``: first 0 (entries), 1 (weights) or 3 (gradient checks)."""
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, *keys]))


def _symbol_key(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _table_params(table: PrimitiveTable, symbols: Sequence[Symbol], shape=None) -> np.ndarray:
    """The entries of ``symbols`` stacked, each of ``shape`` (by default the first's)."""
    try:
        entries = [table.entries[s] for s in symbols]
    except KeyError as e:
        raise MissingPrimitiveError(e.args[0]) from None
    shape = np.shape(entries[0]) if shape is None else shape
    for sym, entry in zip(symbols, entries):
        if (got := np.shape(entry)) != shape:
            raise ShapeMismatchError(f"primitive {sym.name!r} has shape {got}, expected {shape}")
    return np.stack(entries)


def _forward(dag: _Dag, params: np.ndarray, comp: CompositionSpec) -> np.ndarray:
    """Value of every subtree of ``dag``, indexed by id; ``params[i]`` is the
    value of leaf ``i``, ``dag.symbols[i]``.  One ``composes`` call per
    level."""
    values = np.empty((len(dag.left),) + params.shape[1:])
    values[:len(params)] = params
    for lo, hi in dag.levels:
        values[lo:hi] = composes(comp, values[dag.left[lo:hi]], values[dag.right[lo:hi]])
    return values


def _flat_index(ids: np.ndarray, width: int) -> np.ndarray:
    """Flat indices of the elements of rows ``ids`` of a ``(size, width)`` array."""
    return (ids[:, None] * width + np.arange(width)).ravel()


def _backward(problem: _Problem, values: np.ndarray, comp: CompositionSpec,
              seed: np.ndarray, upstream: np.ndarray) -> list[np.ndarray]:
    """Adjoint of ``_forward`` over ``problem.dag`` for a ``_fit_problem``'s linear ``comp``.

    ``upstream[k]`` is the gradient with respect to the value of the k-th subtree
    that ``seed``, a ``_flat_index``, names.  Returns the list ``_Adam.step`` takes:
    the parameter rows' gradient, then, if ``problem.learns_weights``, both weight
    matrices'.  A subtree shared by several parents sums their gradients before passing on.

    The adds into a subtree's gradient come in one fixed order: the seeded subtrees in
    ``seed`` order, then the levels from the highest down, each level adding its left-child
    block and then its right-child block, nodes in id order.  Floating-point sums depend on
    their order, so keeping it keeps every gradient, objective trace and report byte-stable.
    The scatters run on the flat array with one index per element, which numpy's
    ``ufunc.at`` handles on its fast path; each element still receives its adds in the
    order of the row ids.  Each level's index, left block then right block
    (``_Problem.level_index``), and the rows' roots' seed (``root_index``) are built once
    per problem; the weight gradients are ``np.tensordot``'s GEMM, on the same operands.
    """
    dag, lw, rw = problem.dag, comp.left_weights, comp.right_weights
    grads = np.zeros_like(values)
    flat, side = grads.reshape(-1), values.shape[1]
    np.add.at(flat, seed, upstream.ravel())
    shape = (len(values), side, -1)
    cols, gcols = values.reshape(shape), grads.reshape(shape)
    grad_lw, grad_rw = np.zeros_like(lw), np.zeros_like(rw)
    for (lo, hi), index in zip(reversed(dag.levels), reversed(problem.level_index)):
        g, left, right = gcols[lo:hi], dag.left[lo:hi], dag.right[lo:hi]
        children = np.empty((2,) + g.shape)
        np.matmul(lw.T, g, out=children[0])
        np.matmul(rw.T, g, out=children[1])
        np.add.at(flat, index, children.ravel())
        if problem.learns_weights:
            gt = g.transpose(1, 0, 2).reshape(side, -1)
            grad_lw += np.dot(gt, cols[left].transpose(0, 2, 1).reshape(-1, side))
            grad_rw += np.dot(gt, cols[right].transpose(0, 2, 1).reshape(-1, side))
    return [grads[:len(dag.symbols)], *((grad_lw, grad_rw) if problem.learns_weights else ())]


class _Adam:
    """Adam over a list of arrays, each updated in place; the first is the
    parameter rows."""

    def __init__(self, arrays: Sequence[np.ndarray], learning_rate: float):
        self.arrays = arrays
        self.lr = learning_rate
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]):
        self.t += 1
        for k, (array, grad) in enumerate(zip(self.arrays, grads)):
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * grad
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * grad * grad
            mhat = self.m[k] / (1.0 - ADAM_BETA1**self.t)
            vhat = self.v[k] / (1.0 - ADAM_BETA2**self.t)
            array -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass(frozen=True)
class _Rows:
    """The rows that fitting sums over (see ``_Problem.rows``): row ``g``
    holds the records of key ``keys[g]``, the first of them ``first[g]``, and
    adds ``weights[g]`` (1 where None) times the distance of their prediction
    to the flat ``targets[g]``, whose norm under cosine is ``norms[g]``;
    ``constant`` is added once."""

    keys: np.ndarray                    # (rows, P) leaf counts or (rows, 1) root ids
    first: np.ndarray                   # (rows,) record index
    targets: np.ndarray                 # (rows, prod(shape))
    weights: np.ndarray | None          # (rows,)
    constant: float
    norms: np.ndarray | None = None     # (rows,), under cosine


@dataclass
class _Problem:
    """A dataset compiled for fitting and evaluation under distance ``kind``
    and composition ``comp``; a linear one without matrices learns them."""

    dag: _Dag
    targets: np.ndarray                 # (n, *shape)
    kind: str
    comp: CompositionSpec

    @property
    def learns_weights(self) -> bool:
        return _learns_weights(self.comp)

    @cached_property
    def counts(self) -> np.ndarray:
        """(n, P) leaf-count matrix: the additive evaluation at one-hot
        parameters.  Dense, so built only when read."""
        return self.predict(np.eye(len(self.dag.symbols)), AdditiveComposition())

    def predict(self, params: np.ndarray, comp: CompositionSpec) -> np.ndarray:
        """(n, *shape) predictions of the records at ``params`` under ``comp``."""
        return _forward(self.dag, params, comp)[self.dag.roots]

    @cached_property
    def level_index(self) -> list[np.ndarray]:
        """Per level, ``_backward``'s scatter: its left, then right children's ``_flat_index``."""
        dag, width = self.dag, math.prod(self.targets.shape[1:])
        return [_flat_index(np.concatenate([dag.left[lo:hi], dag.right[lo:hi]]), width)
                for lo, hi in dag.levels]

    @cached_property
    def root_index(self) -> np.ndarray:
        """``_backward``'s seed under linear composition: the rows' roots' ``_flat_index``."""
        return _flat_index(self.rows.keys[:, 0], math.prod(self.targets.shape[1:]))

    @cached_property
    def rows(self) -> _Rows:
        """The records grouped by shared prediction ``p``, additive ones by
        leaf-count row ``u`` (``p = u @ params``) and linear ones by DAG root:
        the objective's sum over records is, up to rounding, a weighted sum:

        * squared_l2: over a group's m records,
          sum_k |p - y_k|^2 = m |p - mean(y)|^2 + sum_k |y_k - mean(y)|^2,
          so the target is the mean, the weight m, and the scatter goes to
          the constant;
        * cosine: sum_k cosdist(p, y_k) = |s| cosdist(p, s) + m - |s| with
          s = sum_k y_k / |y_k|.  Where s is 0 the row keeps weight 0 and
          its first record's unit target as a stand-in, so that a zero
          prediction there still raises ZeroNormError, and ``fit`` a
          DivergenceError naming a record;
        * l1 has no such reduction: the rows are the records, unweighted.
        """
        flat = self.targets.reshape(len(self.targets), -1)
        keys = self.counts if isinstance(self.comp, AdditiveComposition) else self.dag.roots[:, None]
        if self.kind == "l1":
            return _Rows(keys, np.arange(len(flat)), flat, None, 0.0)
        keys, first, inverse, sizes = _distinct_rows(keys)
        sums = np.zeros((len(keys), flat.shape[1]))
        index = _flat_index(inverse, flat.shape[1])
        if self.kind == "squared_l2":
            np.add.at(sums.reshape(-1), index, flat.ravel())
            means = sums / sizes[:, None]
            constant = math.fsum(distances("squared_l2", flat, means[inverse]).tolist())
            return _Rows(keys, first, means, sizes, constant)
        units = flat / _row_norms(flat)[:, None]
        np.add.at(sums.reshape(-1), index, units.ravel())
        weights = _row_norms(sums)
        cancelled = weights == 0.0
        sums[cancelled] = units[first[cancelled]]
        constant = math.fsum((sizes - weights).tolist())
        return _Rows(keys, first, sums, weights, constant, _row_norms(sums))


def _distinct_rows(matrix: np.ndarray):
    """``np.unique(matrix, axis=0, return_index=True, return_inverse=True,
    return_counts=True)``, computed with one stable lexicographic sort
    instead of the void-dtype sort ``np.unique`` makes for an axis."""
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    new = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    starts = np.flatnonzero(new)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return ordered[starts], order[starts], inverse, np.diff(starts, append=len(order))


def _check_cosine_norms(dataset: Dataset) -> None:
    """Raises ZeroNormError naming the first record whose representation has
    norm 0; its ``rows`` are the indices of every such record."""
    values = dataset._values
    zero = np.flatnonzero(_row_norms(values.reshape(len(values), -1)) == 0.0)
    if zero.size:
        raise ZeroNormError(f"cosine distance is undefined for zero-norm representation "
                            f"in record {dataset.records[zero[0]].id!r}", zero.tolist())


def _build_problem(dataset: Dataset, kind: str, comp: CompositionSpec) -> _Problem:
    """Under cosine, raises ZeroNormError as ``_check_cosine_norms`` does."""
    if kind == "cosine":
        _check_cosine_norms(dataset)
    return _Problem(dataset._dag, dataset._values, kind, comp)


def _loss_and_grads(problem: _Problem, params: np.ndarray, comp: CompositionSpec):
    """The objective at ``params`` and its gradients, the list ``_Adam.step``
    takes (see ``_backward``), summed over ``problem.rows``; ``comp`` is
    ``problem.comp`` with the weights in use.  The one place the objective
    depends on ``problem.comp``: additive, linear in the parameters,
    multiplies the flat parameters by the rows' leaf counts and the gradient
    by their transpose; linear runs ``_forward`` over the DAG and
    ``_backward`` from the rows' roots.

    Additive runs in row blocks of at most ``_BLOCK_VALUES`` target values, in two
    buffers per call, and adds their losses and gradients in block order.  The l1
    gradient, of integer terms, is the same at any block count; squared_l2 and
    cosine results are the same while the rows fit in one block.  A cosine
    ZeroNormError names every zero-norm row, in every block, by its index in
    ``problem.rows``, so that ``fit`` names the first such record in record order."""
    rows, flat = problem.rows, params.reshape(len(params), -1)
    if isinstance(problem.comp, AdditiveComposition):
        size = max(1, _BLOCK_VALUES // rows.targets.shape[1])
        scratch = np.empty((2,) + rows.targets[:size].shape)
        loss, grad, zero = rows.constant, None, []
        for start in range(0, len(rows.targets), size):
            block = slice(start, start + size)
            pair = scratch[:, :len(rows.targets[block])]
            try:
                part, dpred = _loss_and_dpred(
                    problem.kind, np.matmul(rows.keys[block], flat, out=pair[0]),
                    rows.targets[block], None if rows.weights is None else rows.weights[block],
                    None if rows.norms is None else rows.norms[block], pair)
            except ZeroNormError as err:
                zero += [start + r for r in err.rows]
                continue
            part_grad = rows.keys[block].T @ dpred
            loss += part
            grad = part_grad if grad is None else grad + part_grad
        if zero:
            raise ZeroNormError("cosine distance is undefined for a zero-norm operand", zero)
        return loss, [grad.reshape(params.shape)]
    values = _forward(problem.dag, params, comp)
    loss, dpred = _loss_and_dpred(problem.kind, values[rows.keys[:, 0]], rows.targets,
                                  rows.weights, rows.norms)
    return rows.constant + loss, _backward(problem, values, comp, problem.root_index, dpred)


def _init_params(problem: _Problem, seed: int, restart: int) -> np.ndarray:
    shape = problem.targets.shape[1:]
    params = np.empty((len(problem.dag.symbols),) + shape)
    for i, sym in enumerate(problem.dag.symbols):
        rng = _rng(seed, 0, restart, _symbol_key(sym.name))
        params[i] = rng.normal(0.0, INIT_SCALE, shape)
    return params


def _init_weights(problem: _Problem, seed: int, restart: int):
    side = problem.targets.shape[1]
    eye = np.eye(side)
    lw = eye + _rng(seed, 1, restart, 0).normal(0.0, INIT_SCALE, (side, side))
    rw = eye + _rng(seed, 1, restart, 1).normal(0.0, INIT_SCALE, (side, side))
    return lw, rw


@dataclass(frozen=True)
class _Restart:
    """One restart's parameter rows, composition with the weights in use,
    (step, objective) trace and stop before ``config.steps``."""

    params: np.ndarray
    comp: CompositionSpec
    trace: tuple[tuple[int, float], ...]
    converged: bool


def _report(dataset: Dataset, problem: _Problem, run: _Restart,
            errors: list[float]) -> TreReport:
    """The report of ``run`` on ``dataset``, compiled as ``problem``: copies of
    its entries and learned weights, and the per-record ``errors`` and their mean."""
    entries = {sym: run.params[i].copy() for i, sym in enumerate(problem.dag.symbols)}
    weights = (LinearComposition(run.comp.left_weights.copy(), run.comp.right_weights.copy())
               if problem.learns_weights else None)
    return TreReport({rec.id: e for rec, e in zip(dataset.records, errors)},
                     math.fsum(errors) / len(errors), PrimitiveTable(entries, weights),
                     run.trace, run.converged)


def _fit_problem(dataset: Dataset, config: FitConfig) -> _Problem:
    """``dataset`` compiled for ``fit`` and ``gradient_check``, which refuse
    with ValueError a composition they cannot optimize through: a table, or
    matrices that do not match the dataset shape."""
    comp = config.composition
    if isinstance(comp, LinearComposition):
        if comp.has_weights and len(comp.left_weights) != dataset.shape.array_shape()[0]:
            raise ValueError("composition weights do not match the dataset shape")
    elif not isinstance(comp, AdditiveComposition):
        raise ValueError(
            f"cannot optimize through composition kind {getattr(comp, 'kind', comp)!r}")
    return _build_problem(dataset, config.distance.kind, comp)


def fit(dataset: Dataset, config: FitConfig) -> TreReport:
    """Minimize the summed reconstruction error with full-batch Adam.

    Parameters are initialized i.i.d. Gaussian(0, INIT_SCALE^2) keyed by
    (seed, restart, symbol name), so results do not depend on record order.
    Learned linear weights start at the identity plus the same-scale noise.
    Runs at most ``config.steps`` updates per restart, stopping early once the
    best objective seen stops improving (relatively) by ``convergence_tol``
    over a 50-step window, and keeps the restart with the lowest final
    objective.  The dataset's derivations are compiled once into a DAG of
    distinct subtrees, and every step evaluates and differentiates that DAG
    in a fixed order, so runs are bit-reproducible given (dataset order,
    config).  Each step is one ``_loss_and_grads`` call, which under additive
    composition uses weighted distinct leaf-count rows instead of the DAG.
    Each restart ends in a ``_Restart`` record; the winner's is reported, with
    per-record errors at its parameters.  Under cosine, a zero-norm
    representation raises ZeroNormError naming its record, and a prediction
    of norm 0 raises DivergenceError naming the step and the first record, in
    record order, that predicts it.
    """
    problem = _fit_problem(dataset, config)
    # ``min`` keeps the first of equally good restarts.
    runs = (_fit_once(dataset, problem, config, restart) for restart in range(config.restarts))
    best = min(runs, key=lambda run: run.trace[-1][1])
    return _report(dataset, problem, best,
                   _record_errors(problem, problem.predict(best.params, best.comp)))


def _fit_once(dataset: Dataset, problem: _Problem, config: FitConfig, restart: int) -> _Restart:
    params = _init_params(problem, config.seed, restart)
    comp, arrays = problem.comp, [params]
    if problem.learns_weights:
        # Fresh arrays that the Adam steps below update in place.
        comp = LinearComposition(*_init_weights(problem, config.seed, restart))
        arrays += [comp.left_weights, comp.right_weights]
    opt = _Adam(arrays, config.learning_rate)

    trace: list[tuple[int, float]] = []
    best_so_far: list[float] = []
    while True:
        step = len(trace)
        try:
            obj, grads = _loss_and_grads(problem, params, comp)
        except ZeroNormError as zero:
            first = dataset.records[problem.rows.first[list(zero.rows)].min()].id
            raise DivergenceError(step, f"cosine prediction has zero norm at step {step} "
                                        f"in record {first!r}") from None
        if not np.isfinite(obj):
            raise DivergenceError(step)
        trace.append((step, obj))
        best_so_far.append(obj if not best_so_far else min(best_so_far[-1], obj))

        if step >= config.steps:
            break
        if len(best_so_far) > EARLY_STOP_WINDOW:
            prev = best_so_far[-1 - EARLY_STOP_WINDOW]
            improvement = prev - best_so_far[-1]
            if improvement / max(prev, 1e-30) < config.convergence_tol:
                break

        opt.step(grads)

    return _Restart(params, comp, tuple(trace), step < config.steps)


def closed_form_fit(dataset: Dataset) -> TreReport:
    """Exact optimum for additive composition under squared-L2 distance.

    Each prediction is the leaf-count-weighted sum of primitive entries, so
    the objective is linear least squares in the entries.  ``np.linalg.lstsq``
    solves it by SVD and returns the minimum-norm solution on rank deficiency.
    """
    problem = _build_problem(dataset, "squared_l2", AdditiveComposition())
    flat_targets = problem.targets.reshape(len(dataset), -1)
    solution, *_ = np.linalg.lstsq(problem.counts, flat_targets, rcond=None)

    errors = distances("squared_l2", problem.counts @ solution, flat_targets).tolist()
    run = _Restart(solution.reshape((-1,) + problem.targets.shape[1:]), problem.comp,
                   ((0, math.fsum(errors)),), True)
    return _report(dataset, problem, run, errors)


def gradient_check(dataset: Dataset, config: FitConfig, trials: int = 100) -> float:
    """Worst relative error of analytic objective gradients vs central finite differences, as
    directional derivatives along random directions: per trial, a random point x (with
    learned linear weights when learned) and a direction v over the same arrays.  The
    analytic side sums <g, v> over the optimizer's own ``_loss_and_grads`` at x, so it
    also checks that the sum over its rows equals the per-record one; the numeric side is
    (F(x + hv) - F(x - hv)) / 2h, h = ``GRADCHECK_STEP``, where F sums ``_record_errors``.
    A draw is refused where the objective may have no derivative: under l1, if a residual
    is 0 at x or has another sign at x - hv or x + hv; under cosine, if a prediction at x
    has norm at most 1e-3.  A trial with no usable point in 64 draws raises ValueError, as
    does ``_integer``'s check that ``trials`` is at least 1: a check of no points would
    report a perfect 0.0.  A configuration that ``fit`` refuses raises its ValueError.
    """
    trials = _integer("trials", trials, 1)
    problem = _fit_problem(dataset, config)
    dag, shape, kind = problem.dag, problem.targets.shape[1:], problem.kind

    def at(arrays):
        return arrays[0], LinearComposition(*arrays[1:]) if problem.learns_weights else problem.comp

    worst = 0.0
    for trial in range(trials):
        for attempt in range(64):
            rng = _rng(config.seed, 3, trial, attempt)
            x = [rng.normal(0.0, 1.0, (len(dag.symbols),) + shape)]
            if problem.learns_weights:
                x += [np.eye(shape[0]) + 0.5 * rng.normal(0.0, 1.0, (shape[0],) * 2)
                      for _ in range(2)]
            v = [rng.normal(0.0, 1.0, a.shape) for a in x]
            lo, hi = ([a + sign * GRADCHECK_STEP * b for a, b in zip(x, v)] for sign in (-1, 1))
            preds = [problem.predict(*at(arrays)) for arrays in (lo, x, hi)]
            residuals = np.subtract(preds, problem.targets)
            norms = _row_norms(preds[1].reshape(len(dag.roots), -1))
            if not (kind == "l1" and (residuals[[0, 2]] * residuals[1] <= 0).any()
                    or kind == "cosine" and norms.min() <= 1e-3):
                break
        else:
            raise ValueError(f"gradient check trial {trial}: no point in 64 draws is away from "
                             f"where the {kind} objective has no derivative")

        _, grads = _loss_and_grads(problem, *at(x))
        analytic = math.fsum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        numeric = (math.fsum(_record_errors(problem, preds[2]))
                   - math.fsum(_record_errors(problem, preds[0]))) / (2.0 * GRADCHECK_STEP)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0))
    return worst


def _first_records(dataset: Dataset) -> dict[Derivation, int]:
    """The index of each distinct derivation's first record, in record order."""
    first: dict[Derivation, int] = {}
    for k, rec in enumerate(dataset.records):
        first.setdefault(rec.derivation, k)
    return first


def trivial_composition_table(dataset: Dataset):
    """Lookup table and composition that reproduce the dataset exactly.

    Requires the dataset to be derivation-closed (every sub-derivation of a
    record's derivation is itself a record) and the derivation-to-
    representation mapping to be consistent.  Demonstrates that with an
    unrestricted composition function, reconstruction error can always be
    driven to zero.  Entries are copies of rows of the dataset's values.
    """
    values, first = dataset._values, _first_records(dataset)
    for k, rec in enumerate(dataset.records):
        if not np.array_equal(values[first[rec.derivation]], values[k]):
            raise ValueError(
                f"derivation {format_derivation(rec.derivation)!r} maps to two "
                f"different representations; lookup composition needs an "
                f"injective derivation oracle")

    entries, table_comp = {}, TableComposition()
    for deriv, k in first.items():
        if isinstance(deriv, Leaf):
            entries[deriv.symbol] = values[k].copy()
            continue
        for child in (deriv.left, deriv.right):
            if child not in first:
                raise ValueError(
                    f"dataset is not derivation-closed: sub-derivation "
                    f"{format_derivation(child)!r} has no record")
        table_comp.register(values[first[deriv.left]], values[first[deriv.right]], values[k])
    return PrimitiveTable(entries), table_comp


def homomorphism_residuals(dataset: Dataset, comp: CompositionSpec,
                           distance_spec: DistanceSpec) -> dict[str, float]:
    """Direct check of the composition property on the stored representations.

    For every record whose derivation combines two sub-derivations that are
    themselves records, returns the distance between the record's stored
    representation and the composition of the children's stored
    representations.  All-zero residuals mean the representations already
    compose exactly; ties to zero reconstruction error.  When several records
    share a derivation, the first by record order supplies its representation.
    """
    values, first = dataset._values, _first_records(dataset)
    derivations = (rec.derivation for rec in dataset.records)
    ids, left, right = np.array(
        [(k, first[d.left], first[d.right]) for k, d in enumerate(derivations)
         if isinstance(d, Node) and d.left in first and d.right in first],
        dtype=np.intp).reshape(-1, 3).T
    errors = distances(distance_spec.kind, values[ids],
                       composes(comp, values[left], values[right])).tolist()
    return {dataset.records[k].id: e for k, e in zip(ids.tolist(), errors)}
