"""Representation values, distance functions, and composition functions.

Representations are dense float64 numpy arrays.  Two shapes are supported:

* ``VectorShape(dim)``: a flat embedding vector of length ``dim``.
* ``CodeShape(length, vocab)``: a ``length x vocab`` matrix encoding a
  discrete code position by position (row-major), where a hard code has
  one-hot rows and a relaxed code has arbitrary real rows.

Distances: ``cosine`` (1 - dot/(|r||s|), computed on flattened values),
``l1`` (sum of absolute differences) and ``squared_l2`` (sum of squared
differences).  Only l1 and squared_l2 separate points (zero distance iff
equal); cosine is scale-invariant, so colinear representations coincide
under it, and a zero-norm operand is rejected rather than mapped to NaN.
``distances`` holds each formula once, over batches of rows, and
``distance`` is its one-row case.  The fit's loss-and-gradient kernel,
``_loss_and_dpred``, reuses the cosine terms, sums the l1 and squared_l2
loss over all coordinates at once and works in a caller's block buffers.
Compositions: elementwise addition, a learned/fixed linear form
``L @ r + R @ s`` that mixes positions but never vocabulary columns, and an
exact-lookup table keyed on bit-identical operand pairs.  ``composes``
holds each of them once, over batches of rows, and ``compose`` is its
one-row case.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not conform to the declared or expected shape."""


class ZeroNormError(ValueError):
    """Cosine distance requested for a zero-norm operand.

    ``rows`` lists the offending rows when a batch was evaluated.
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class CompositionLookupError(KeyError):
    """Table composition queried with an operand pair it never registered."""


def _integer(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value`` as a Python int.  A bool, anything without ``__index__``
    (a float too, even a whole one) and, if ``least`` or ``most`` is given,
    anything below or above it raise a ValueError that names the setting."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if (number is None or (least is not None and number < least)
            or (most is not None and number > most)):
        bound = "" if least is None else f" of at least {least}"
        bound += "" if most is None else f" and at most {most}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite Python float of at least 0, or above 0 when
    ``positive``.  A bool, anything that is not a ``numbers.Real``, NaN and
    an int past float range raise a ValueError that names the setting."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int past float range
        number = math.inf
    if not (0 < number < math.inf if positive else 0 <= number < math.inf):
        bound = "above 0" if positive else "of at least 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return number


@dataclass(frozen=True)
class VectorShape:
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))

    def array_shape(self) -> tuple[int, ...]:
        return (self.dim,)


@dataclass(frozen=True)
class CodeShape:
    length: int
    vocab: int

    def __post_init__(self):
        for name in ("length", "vocab"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))

    def array_shape(self) -> tuple[int, ...]:
        return (self.length, self.vocab)


Shape = Union[VectorShape, CodeShape]


def as_representation(values) -> np.ndarray:
    """Coerce ``values`` to a float64 array, checking finiteness."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("representation values must be finite")
    return arr


def is_hard_code(arr: np.ndarray) -> bool:
    """True when every row is exactly one-hot (entries 0.0 or 1.0)."""
    if arr.ndim != 2:
        return False
    onehot = np.isin(arr, (0.0, 1.0)).all()
    return bool(onehot and (arr.sum(axis=1) == 1.0).all())


def encode_message(message: str, alphabet: str) -> np.ndarray:
    """One-hot position-by-vocabulary matrix for a token string."""
    matrix = np.zeros((len(message), len(alphabet)))
    for pos, ch in enumerate(message):
        col = alphabet.find(ch)
        if col < 0:
            raise ValueError(f"token {ch!r} not in alphabet {alphabet!r}")
        matrix[pos, col] = 1.0
    return matrix


def decode_message(matrix: np.ndarray, alphabet: str) -> str:
    """Inverse of encode_message for hard one-hot matrices."""
    return "".join(alphabet[int(row.argmax())] for row in matrix)


DISTANCE_KINDS = ("cosine", "l1", "squared_l2")


@dataclass(frozen=True)
class DistanceSpec:
    """Which distance to apply between two equal-shape representations."""

    kind: str

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance kind {self.kind!r}; "
                             f"expected one of {DISTANCE_KINDS}")


@dataclass(frozen=True)
class AdditiveComposition:
    """Elementwise sum; requires equal operand shapes."""

    kind = "additive"


@dataclass(frozen=True)
class LinearComposition:
    """Combines operands as ``left_weights @ r + right_weights @ s``.

    For vectors the weights are dim x dim; for code matrices they are
    length x length and act along the position axis only, so tokens can be
    moved between positions but vocabulary columns never mix.  Constructed
    without weights it is a placeholder: fitting learns its matrices.
    """

    left_weights: np.ndarray | None = None
    right_weights: np.ndarray | None = None
    kind = "linear"

    def __post_init__(self):
        if (self.left_weights is None) != (self.right_weights is None):
            raise ValueError("provide both weight matrices or neither")
        if self.left_weights is not None:
            lw = as_representation(self.left_weights)
            rw = as_representation(self.right_weights)
            if lw.ndim != 2 or lw.shape[0] != lw.shape[1] or lw.shape != rw.shape:
                raise ShapeMismatchError("weights must be equal-size square matrices")
            object.__setattr__(self, "left_weights", lw)
            object.__setattr__(self, "right_weights", rw)

    @property
    def has_weights(self) -> bool:
        return self.left_weights is not None


def _table_key(r: np.ndarray, s: np.ndarray):
    return (r.shape, r.tobytes(), s.shape, s.tobytes())


@dataclass(frozen=True)
class TableComposition:
    """Exact-lookup composition keyed on bit-identical operand pairs.

    Exists to demonstrate that an unrestricted composition function can
    reproduce any injectively-derived dataset perfectly; it is test/diagnostic
    machinery, not an optimizable operation.
    """

    _memo: dict = field(default_factory=dict, repr=False)
    kind = "table"

    def register(self, r: np.ndarray, s: np.ndarray, out: np.ndarray):
        self._memo[_table_key(r, s)] = np.array(out, dtype=np.float64)

    def lookup(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        try:
            return self._memo[_table_key(r, s)]
        except KeyError:
            raise CompositionLookupError(
                "operand pair was never registered with this table"
            ) from None


CompositionSpec = Union[AdditiveComposition, LinearComposition, TableComposition]


def _check_equal_shapes(r: np.ndarray, s: np.ndarray):
    if r.shape != s.shape:
        raise ShapeMismatchError(f"operand shapes differ: {r.shape} vs {s.shape}")


def distance(spec: DistanceSpec, r: np.ndarray, s: np.ndarray) -> float:
    _check_equal_shapes(r, s)
    return float(distances(spec.kind, r[None], s[None])[0])


def distances(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distances: ``out[k]`` is the ``kind`` distance between
    ``a[k]`` and ``b[k]``.

    ``a`` and ``b`` have equal shapes; rows run along the leading axis and
    each row is flattened.  Cosine is 0.0 on exactly equal rows, and raises
    ZeroNormError naming every row with a zero-norm operand.
    """
    af, bf = _flat_rows(a), _flat_rows(b)
    if kind == "cosine":
        return _cosine_terms(af, bf)[0]
    diff = af - bf
    return (np.abs if kind == "l1" else np.square)(diff, out=diff).sum(axis=1)


def _flat_rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of the 2-d ``x``: every cosine norm."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _cosine_terms(af: np.ndarray, bf: np.ndarray, bn: np.ndarray | None = None):
    """Cosine ``distances`` of the flat rows ``af`` and ``bf`` plus the
    intermediates its gradient reuses: the rows' norms (``bn``, ``bf``'s, when
    not given) and dot products, as ``einsum`` contractions.  Equal rows score
    a few ulps at most, so only rows at or below 1e-12 are tested for equality."""
    an = _row_norms(af)
    if bn is None:
        bn = _row_norms(bf)
    zero = np.flatnonzero((an == 0.0) | (bn == 0.0))
    if zero.size:
        raise ZeroNormError("cosine distance is undefined for a zero-norm "
                            "operand", zero.tolist())
    dots = np.einsum("ij,ij->i", af, bf)
    out = np.maximum(1.0 - dots / (an * bn), 0.0)
    near = np.flatnonzero(out <= 1e-12)
    out[near[(af[near] == bf[near]).all(axis=1)]] = 0.0
    return out, an, bn, dots


def compose(spec: CompositionSpec, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return composes(spec, r[None], s[None])[0]


def composes(spec: CompositionSpec, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise compositions: ``out[k]`` composes ``r[k]`` with ``s[k]``.

    Rows run along the leading axis.  Linear composition treats a vector
    row as a d x 1 matrix, so one matmul serves both shapes; a table looks
    each row pair up on its own.
    """
    if isinstance(spec, AdditiveComposition):
        _check_equal_shapes(r, s)
        return r + s
    if isinstance(spec, LinearComposition):
        if not spec.has_weights:
            raise ValueError("linear composition has no weights yet; "
                             "fit it to learn them or supply matrices")
        _check_equal_shapes(r, s)
        if spec.left_weights.shape[1] != r.shape[1]:
            raise ShapeMismatchError(
                f"weights act on leading axis of size {spec.left_weights.shape[1]}, "
                f"operands have leading axis {r.shape[1]}"
            )
        cols = r.shape[:2] + (math.prod(r.shape[2:]),)
        return (np.matmul(spec.left_weights, r.reshape(cols))
                + np.matmul(spec.right_weights, s.reshape(cols))).reshape(r.shape)
    if isinstance(spec, TableComposition):
        rows = [spec.lookup(a, b) for a, b in zip(r, s)]
        return np.stack(rows) if rows else np.empty_like(r)
    raise TypeError(f"unknown composition spec {spec!r}")


def _loss_and_dpred(kind: str, preds: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray | None = None,
                    target_norms: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """Summed ``distances`` over a batch and its gradient with respect to
    ``preds``; with ``weights``, row k's distance counts ``weights[k]`` times.
    Cosine takes the norms of the flat target rows as ``target_norms``, or
    computes them when not given.  It writes only ``scratch``, two flat-row arrays (fresh if
    None): the gradient it returns to the second, a term to the first, which may be ``preds``.

    l1 and squared_l2 sum their loss as one flat dot product of the gradient
    with the residuals d = pred - target, with no per-row distances: the
    terms are w * sign(d) * d = w |d| and w * 2d * d, halved, = w d^2.  The
    sum runs in another order than the per-row one of ``distances``, so it
    may differ from it in the last bits.  l1 uses sign(d) with 0 at exact
    ties, so an optimizer sits still on coordinates it has matched exactly.
    """
    pf, tf = _flat_rows(preds), _flat_rows(targets)
    diff, dpred = np.empty((2,) + pf.shape) if scratch is None else scratch
    if kind == "cosine":
        rows, pn, tn, dots = _cosine_terms(pf, tf, target_norms)
        w = 1.0 if weights is None else weights
        scale = w / (pn * tn)
        np.einsum("i,ij->ij", scale * dots / (pn * pn), pf, out=dpred)
        dpred -= np.einsum("i,ij->ij", scale, tf, out=diff)
        return float((w * rows).sum()), dpred.reshape(preds.shape)
    np.subtract(pf, tf, out=diff)
    dpred = np.sign(diff, out=dpred) if kind == "l1" else np.multiply(2.0, diff, out=dpred)
    if weights is not None:
        dpred *= weights[:, None]
    loss = float(np.vdot(dpred, diff))
    return (loss if kind == "l1" else 0.5 * loss), dpred.reshape(preds.shape)
