"""Companion measurements over fitted models and raw datasets.

* Topographic similarity: correlation between pairwise representation
  distances and pairwise derivation edit distances.
* Bound check: with a translation-invariant metric, additive composition, and
  unit-ball primitive entries, representation distances can exceed derivation
  distances by at most twice the worst per-record reconstruction error.
  The check enumerates all record pairs and reports any violation.
* Binned mutual information between discrete input labels and (discretized)
  representations.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .derivation import pairwise_tree_edit_distances
from .solver import (_BLOCK_VALUES, Dataset, PrimitiveTable, _check_cosine_norms, _table_errors,
                     _table_params)
# Unused ``tre_datum`` and ``distance`` stay importable: perfbench's tracer wraps them.
from .solver import tre_datum  # noqa: F401
from .space import (AdditiveComposition, CompositionSpec, DistanceSpec, _integer,
                    as_representation, distances)
from .space import distance  # noqa: F401

# Slack absorbing pure floating-point rounding in inequality checks; the
# quantities compared are O(1)-scale sums of absolute values.
_FLOAT_SLACK = 1e-9


class DegenerateInputError(ValueError):
    """Correlation requested for a constant (zero-variance) sequence."""


class ConditionsUnmetError(ValueError):
    """Bound check preconditions failed; this is not a bound violation."""


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    n: int


@dataclass(frozen=True)
class BoundCheckReport:
    """epsilon is the worst per-record reconstruction error; a violation is a
    record pair whose representation distance exceeds tree distance + 2*epsilon."""

    epsilon: float
    violations: tuple[tuple[tuple[str, str], float, float], ...]
    holds: bool


def _as_float_array(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise ValueError("expected a 1-d sequence of finite numbers")
    return arr


def _t_approx_p_value(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    # Imported here, not at the top: only p-values need it.  2 * stdtr(df, -|t|)
    # is scipy.stats' t.sf to the bit, without its second-long import.
    from scipy import special

    return float(2.0 * special.stdtr(n - 2, -abs(t)))


def _pearson_coefficient(xs: np.ndarray, ys: np.ndarray) -> float:
    # Exact power-of-two scaling to a largest magnitude in [0.5, 1): no mean or square overflows.
    xs, ys = (np.ldexp(s, -np.frexp(np.abs(s).max())[1]) for s in (xs, ys))
    for s in (xs, ys):  # in place: the scaled copies are new, the caller's arrays stay
        s -= s.mean()
    sx = float(np.sqrt((xs * xs).sum()))
    sy = float(np.sqrt((ys * ys).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("correlation is undefined for a constant sequence")
    r = float((xs * ys).sum()) / (sx * sy)
    return max(-1.0, min(1.0, r))


def _exact_permutation_p(xs: np.ndarray, ys: np.ndarray, observed: float) -> float:
    n = len(xs)
    if n > 10:
        raise ValueError("exact permutation p-value supported for n <= 10 only")
    target = abs(observed) - _FLOAT_SLACK
    hits = total = 0
    for perm in itertools.permutations(range(n)):
        r = _pearson_coefficient(xs, ys[list(perm)])
        hits += abs(r) >= target
        total += 1
    return hits / total


def pearson(xs, ys, exact: bool = False) -> CorrelationResult:
    """Pearson correlation with a two-sided t-approximation p-value.

    ``exact=True`` (n <= 10) replaces the p-value with the exact two-sided
    permutation probability of an |r| at least as large.
    """
    xs, ys = _as_float_array(xs), _as_float_array(ys)
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 3:
        raise ValueError("need at least 3 pairs")
    r = _pearson_coefficient(xs, ys)
    p = _exact_permutation_p(xs, ys, r) if exact else _t_approx_p_value(r, len(xs))
    return CorrelationResult(r, p, len(xs))


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """1-based ranks; each group of tied values gets the mean of its ranks.  Whole
    numbers in ``[0, len(xs)]``, such as edit distances, are counted, not sorted."""
    whole = len(xs) > 0 and all(0 <= s.min() and s.max() <= len(xs) and (np.floor(s) == s).all()
                                for s in (xs[:64], xs))  # most float sides fail in the first 64
    if whole:
        group = xs.astype(np.intp)
        count = np.bincount(group)  # empty bins are never indexed below
    else:
        _, group, count = np.unique(xs, return_inverse=True, return_counts=True)
    end = np.cumsum(count)  # a group's ranks run from end - count + 1 to end
    return ((2 * end - count + 1) / 2.0)[group]


def spearman(xs, ys, exact: bool = False) -> CorrelationResult:
    """Spearman rank correlation: ``pearson`` on average ranks (ties share
    the mean of their ranks)."""
    return pearson(_average_ranks(_as_float_array(xs)),
                   _average_ranks(_as_float_array(ys)), exact)


def _pairs(kind: str, rows: np.ndarray) -> np.ndarray:
    """``kind`` distances of every pair (i, j), i < j, of ``rows`` in
    ``np.triu_indices`` order, filled in tiles: runs of that order whose
    operands hold at most ``_BLOCK_VALUES`` values each.  A pair's distance
    does not depend on its tile."""
    n, size = len(rows), max(1, _BLOCK_VALUES // math.prod(rows.shape[1:]))
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # one past each row's last pair
    out = np.empty(n * (n - 1) // 2)
    for start in range(0, len(out), size):
        k = np.arange(start, min(start + size, len(out)))
        i = np.searchsorted(ends, k, side="right")
        out[k] = distances(kind, rows.take(i, axis=0), rows.take(k - ends[i] + n, axis=0))
    return out


def _pair_distances(dataset: Dataset, distance_spec: DistanceSpec):
    """Representation and tree edit distances of every record pair (i, j),
    i < j, in row-major upper-triangle order, as a float64 and an int64 array.

    The representation pairs fill on a second thread while this one fills the
    TED table (numpy releases the GIL in both); each half runs as it would
    alone, so no value depends on the overlap.  A worker's exception is raised
    here after the join.  Under cosine, a zero-norm record raises ZeroNormError
    naming it before the worker starts."""
    kind, values, n = distance_spec.kind, dataset._values, len(dataset)
    if kind == "cosine":
        _check_cosine_norms(dataset)
    rep_d = [None]

    def fill():
        try:
            rep_d[0] = _pairs(kind, values)
        except BaseException as err:  # raised on the calling thread below
            rep_d[0] = err

    worker = threading.Thread(target=fill)
    worker.start()
    try:
        ted = pairwise_tree_edit_distances([r.derivation for r in dataset.records])
        tree_d = np.fromiter(itertools.chain.from_iterable(
            row[i + 1:] for i, row in enumerate(ted)), np.int64, n * (n - 1) // 2)
    finally:
        worker.join()
    if isinstance(rep_d[0], BaseException):
        raise rep_d[0]
    return rep_d[0], tree_d


def topographic_similarity(dataset: Dataset, distance_spec: DistanceSpec,
                           rank_based: bool = True) -> CorrelationResult:
    """Correlation between representation and derivation distances.

    Both distances are evaluated on every unordered record pair; the result's
    ``n`` is the number of pairs.  Rank-based mode (Spearman) makes the score
    invariant to any monotone rescaling of either distance.
    """
    if len(dataset) < 3:
        raise ValueError("topographic similarity needs at least 3 records")
    rep_d, tree_d = _pair_distances(dataset, distance_spec)
    corr = spearman if rank_based else pearson
    try:
        return corr(rep_d, tree_d)
    except DegenerateInputError:
        raise DegenerateInputError(
            "topographic similarity is undefined: one of the pairwise "
            "distance lists is constant") from None


def bound_check(dataset: Dataset, table: PrimitiveTable, comp: CompositionSpec,
                distance_spec: DistanceSpec) -> BoundCheckReport:
    """Verify representation distances against derivation distances.

    Preconditions (raising ConditionsUnmetError, which is not a violation):
    the distance must be l1 (translation-invariant metric), the composition
    additive (its identity element is the zero representation), and every
    primitive entry must lie within unit distance of the origin and of every
    other entry.  Under those conditions no violation can occur except
    through an implementation bug.
    """
    if distance_spec.kind != "l1":
        raise ConditionsUnmetError(
            "conditions unmet: bound check requires a translation-invariant "
            "metric (l1); squared_l2 is not a metric and cosine is not "
            "translation-invariant")
    if not isinstance(comp, AdditiveComposition):
        raise ConditionsUnmetError(
            "conditions unmet: bound check requires additive composition, "
            "whose identity element is the zero representation")
    symbols = list(table.entries)
    if not symbols:
        raise ConditionsUnmetError("conditions unmet: empty primitive table")
    # Row 0 is the origin, so the entries' distances to it come first, then
    # the entry pairs in ``itertools.combinations`` order.
    points = np.insert(_table_params(table, symbols, dataset.shape.array_shape()), 0, 0.0, axis=0)
    d = _pairs(distance_spec.kind, points)
    far = np.flatnonzero(d > 1.0 + _FLOAT_SLACK)
    if far.size:
        i, j = (int(k[far[0]]) for k in np.triu_indices(len(points), 1))
        dist, name = float(d[far[0]]), symbols[j - 1].name
        if i == 0:
            raise ConditionsUnmetError(
                f"conditions unmet: entry {name!r} lies outside the unit "
                f"ball (distance to origin {dist:.6g})")
        raise ConditionsUnmetError(
            f"conditions unmet: entries {symbols[i - 1].name!r} and {name!r} "
            f"are more than unit distance apart ({dist:.6g})")

    epsilon = max(_table_errors(table, comp, distance_spec.kind, dataset))

    rep_d, tree_d = _pair_distances(dataset, distance_spec)
    rhs = tree_d + 2.0 * epsilon
    records = dataset.records
    bad = np.flatnonzero(rep_d > rhs + _FLOAT_SLACK)
    ends = np.cumsum(np.arange(len(records) - 1, 0, -1))  # one past each row's last pair
    rows = np.searchsorted(ends, bad, side="right")
    violations = [((records[i].id, records[j].id), float(rep_d[k]), float(rhs[k]))
                  for i, j, k in zip(rows, bad - ends[rows] + len(records), bad)]
    return BoundCheckReport(epsilon=epsilon, violations=tuple(violations),
                            holds=not violations)


def _entropy_bits(counts) -> float:
    total = sum(counts)
    return -math.fsum((c / total) * math.log2(c / total) for c in counts if c)


def mutual_information_binned(inputs, representations, bins: int = 30) -> float:
    """Plug-in mutual information (bits) between labels and binned
    representations.

    Each representation coordinate is discretized into ``bins`` (an integer
    of at least 2) equal-width bins over its observed range (a constant
    coordinate collapses to bin 0); the bin-index tuple is the discrete
    representation variable.  Inputs are weighted uniformly over records.
    """
    if len(inputs) != len(representations):
        raise ValueError("inputs and representations must have equal length")
    if len(inputs) == 0:
        raise ValueError("empty input")
    bins = _integer("bins", bins, 2)

    flat = as_representation(np.stack([np.ravel(r) for r in representations]))
    # A coordinate whose range overflows is binned on its values halved, which is exact.
    with np.errstate(over="ignore"):
        flat *= np.where(np.isinf(flat.max(axis=0) - flat.min(axis=0)), 0.5, 1.0)
    lo = flat.min(axis=0)
    span = flat.max(axis=0) - lo
    # A constant coordinate is divided by 1, not its span of 0, so it lands in bin 0.
    scaled = (flat - lo) / np.where(span > 0.0, span, 1.0) * bins
    indices = np.minimum(scaled.astype(np.int64), bins - 1)

    patterns = [tuple(row) for row in indices]
    n = len(patterns)
    h_repr = _entropy_bits(Counter(patterns).values())

    by_label: dict = defaultdict(list)
    for label, pattern in zip(inputs, patterns):
        by_label[label].append(pattern)
    h_cond = math.fsum(
        (len(group) / n) * _entropy_bits(Counter(group).values())
        for group in by_label.values()
    )
    return max(0.0, h_repr - h_cond)
