"""Synthetic datasets with controllable compositional structure, plus small
fixed reference-game language fixtures.

``generate_compositional`` builds data that is exactly compositional up to
Gaussian noise and returns the generating table, so fitted error has a known
ground truth.  ``generate_random`` pairs the same derivations with
representations drawn independently of them, giving a matched incompressible
baseline.  The fixture languages are two 8-row fragments of emergent
communication codes over two-object referents, each message a 4-token string
over a 16-token vocabulary, encoded as 4x16 one-hot matrices.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .derivation import Derivation, Node, Symbol, _leaf, parse_derivation
from .solver import Dataset, PrimitiveTable, _rng, eval_compositional
from .space import (AdditiveComposition, CodeShape, CompositionSpec, Shape, _integer, _real,
                    encode_message)


@dataclass(frozen=True)
class GenSpec:
    """Settings for synthetic dataset generation; fully seed-deterministic."""

    num_primitives: int
    shape: Shape
    depth_range: tuple[int, int] = (1, 4)
    num_records: int = 60
    noise_sigma: float = 0.0
    composition: CompositionSpec = AdditiveComposition()
    seed: int = 0

    def __post_init__(self):
        for name, check, bound in (("num_primitives", _integer, 1), ("num_records", _integer, 1),
                                   ("seed", _integer, None), ("noise_sigma", _real, False)):
            object.__setattr__(self, name, check(name, getattr(self, name), bound))
        try:
            lo, hi = self.depth_range
        except (TypeError, ValueError):
            raise ValueError("depth_range must be a pair of integers, "
                             f"got {self.depth_range!r}") from None
        lo = _integer("depth_range[0]", lo, 1)
        object.__setattr__(self, "depth_range", (lo, _integer("depth_range[1]", hi, lo)))


def _streams(seed: int):
    """Independent generators for table entries, trees, and noise/values, so
    derivations are identical across noise levels at a fixed seed."""
    return tuple(_rng(seed, k) for k in range(3))


_BLOCK = 4096  # raw draws per refill of the tree stream


def _raw_draws(rng: np.random.Generator):
    """The raw 32-bit draws of ``rng``, one at a time, read in blocks."""
    while True:
        yield from rng.integers(0, 1 << 32, size=_BLOCK, dtype=np.uint32).tolist()


def _bounded(draws, k: int) -> int:
    """``rng.integers(k)`` read from ``_raw_draws(rng)``, as numpy maps draws
    (Lemire's method): ``(u * k) >> 32``, taking the next draw u while the
    low 32 bits of ``u * k`` fall below ``(2**32 - k) % k``.  A bound of 1
    gives 0 and takes no draw."""
    if k == 1:
        return 0
    threshold = ((1 << 32) - k) % k
    while True:
        m = next(draws) * k
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


def _sample_derivations(spec: GenSpec, rng: np.random.Generator) -> list[Derivation]:
    """Random trees: per record a depth, then per node the shallower child's
    depth and which side is deeper.  The tree stream is read in blocks of raw
    32-bit draws; a bounded ``Generator.integers`` call reads the same draws
    in the same order and maps them as ``_bounded`` does, so the trees are
    those of one call per decision.  ``rng`` is this call's alone, so the
    unread rest of the last block changes nothing."""
    leaves = [_leaf(f"p{i}") for i in range(spec.num_primitives)]
    draws = _raw_draws(rng)
    lo, hi = spec.depth_range

    def tree(depth: int) -> Derivation:
        if depth == 1:
            return leaves[_bounded(draws, len(leaves))]
        shallow = 1 + _bounded(draws, depth - 1)
        deep_on_left = _bounded(draws, 2)
        deep = tree(depth - 1)
        other = tree(shallow)
        return Node(deep, other) if deep_on_left else Node(other, deep)

    return [tree(lo + _bounded(draws, hi - lo + 1)) for _ in range(spec.num_records)]


def _dataset(derivations: list[Derivation], values: np.ndarray, shape: Shape) -> Dataset:
    """Records ``r0000``, ``r0001``, ... pairing each derivation with its values."""
    return Dataset.build(((f"r{i:04d}", value, deriv)
                          for i, (deriv, value) in enumerate(zip(derivations, values))), shape)


def generate_compositional(spec: GenSpec) -> tuple[Dataset, PrimitiveTable]:
    """Dataset whose representations are composed from a hidden ground-truth
    table, plus per-coordinate Gaussian noise; returns that table."""
    table_rng, tree_rng, noise_rng = _streams(spec.seed)
    shape = spec.shape.array_shape()
    symbols = [Symbol(f"p{i}") for i in range(spec.num_primitives)]
    truth = PrimitiveTable({s: table_rng.normal(0.0, 1.0, shape) for s in symbols})

    derivations = _sample_derivations(spec, tree_rng)
    values = eval_compositional(truth, spec.composition, derivations)
    if spec.noise_sigma > 0:
        # One block draws the same stream as one draw per record, in order.
        values += noise_rng.normal(0.0, spec.noise_sigma, values.shape)
    return _dataset(derivations, values, spec.shape), truth


def generate_random(spec: GenSpec) -> Dataset:
    """Same derivation distribution, representations independent of them."""
    _, tree_rng, value_rng = _streams(spec.seed)
    shape = spec.shape.array_shape()
    derivations = _sample_derivations(spec, tree_rng)
    # One block draws the same stream as one draw per record, in order.
    values = value_rng.normal(0.0, 1.0, (len(derivations), *shape))
    return _dataset(derivations, values, spec.shape)


# -- fixture languages ---------------------------------------------------------

MESSAGE_LENGTH = 4
MESSAGE_VOCAB = 16

LANGUAGE_REFERENTS = (
    "((red circle) (blue triangle))",
    "((red circle) (blue star))",
    "((red circle) (blue circle))",
    "((red circle) (blue square))",
    "((red square) (blue triangle))",
    "((red square) (blue star))",
    "((red square) (blue circle))",
    "((red square) (blue square))",
)

LANGUAGE_MESSAGES = {
    "A": ("jjjj", "oppp", "oopp", "oopp", "jjjj", "oooo", "oooo", "oooo"),
    "B": ("jeoo", "jjjj", "jjjj", "jjjb", "jbjj", "jbjj", "jbbb", "jbbb"),
}


def code_alphabet(messages, vocab: int) -> str:
    """Token-to-column mapping for a set of messages: observed characters in
    lexicographic order, padded with unused lowercase letters up to ``vocab``."""
    observed = sorted({ch for msg in messages for ch in msg})
    if len(observed) > vocab:
        raise ValueError(f"messages use {len(observed)} tokens, vocab is {vocab}")
    padding = [c for c in string.ascii_lowercase if c not in observed]
    alphabet = "".join(observed) + "".join(padding)
    if len(alphabet) < vocab:
        raise ValueError("not enough padding characters for requested vocab")
    return alphabet[:vocab]


def _language_dataset(messages) -> Dataset:
    alphabet = code_alphabet(messages, MESSAGE_VOCAB)
    return Dataset.build(
        (("-".join(referent.replace("(", "").replace(")", "").split()),
          encode_message(message, alphabet), parse_derivation(referent))
         for referent, message in zip(LANGUAGE_REFERENTS, messages)),
        CodeShape(MESSAGE_LENGTH, MESSAGE_VOCAB))


def fig5_languages() -> tuple[Dataset, Dataset]:
    """The two fixture languages as datasets of 4x16 one-hot code matrices.

    Derivations come from the referent column; each language maps tokens to
    columns with its own ``code_alphabet``.
    """
    return (_language_dataset(LANGUAGE_MESSAGES["A"]),
            _language_dataset(LANGUAGE_MESSAGES["B"]))


def fig5_alphabets() -> tuple[str, str]:
    return (code_alphabet(LANGUAGE_MESSAGES["A"], MESSAGE_VOCAB),
            code_alphabet(LANGUAGE_MESSAGES["B"], MESSAGE_VOCAB))
