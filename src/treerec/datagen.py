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

import math
import string
from dataclasses import dataclass

import numpy as np

from .derivation import Derivation, Node, Symbol, _leaf, parse_derivation
from .solver import Dataset, PrimitiveTable, Record, _rng, eval_compositional
from .space import AdditiveComposition, CodeShape, CompositionSpec, Shape, encode_message


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
        if self.num_primitives < 1:
            raise ValueError("num_primitives must be positive")
        if self.num_records < 1:
            raise ValueError("num_records must be positive")
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails too
            raise ValueError("noise_sigma must be non-negative and finite")
        lo, hi = self.depth_range
        if lo < 1 or hi < lo:
            raise ValueError("depth_range must satisfy 1 <= lo <= hi")


def _streams(seed: int):
    """Independent generators for table entries, trees, and noise/values, so
    derivations are identical across noise levels at a fixed seed."""
    return tuple(_rng(seed, k) for k in range(3))


def _random_tree(rng: np.random.Generator, names: list[str], depth: int) -> Derivation:
    if depth == 1:
        return _leaf(names[int(rng.integers(len(names)))])
    shallow = int(rng.integers(1, depth)) if depth > 2 else 1
    deep_on_left = bool(rng.integers(2))
    deep = _random_tree(rng, names, depth - 1)
    other = _random_tree(rng, names, shallow)
    return Node(deep, other) if deep_on_left else Node(other, deep)


def _sample_derivations(spec: GenSpec, rng: np.random.Generator) -> list[Derivation]:
    names = [f"p{i}" for i in range(spec.num_primitives)]
    lo, hi = spec.depth_range
    out = []
    for _ in range(spec.num_records):
        depth = int(rng.integers(lo, hi + 1))
        out.append(_random_tree(rng, names, depth))
    return out


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
    records = (Record(f"r{i:04d}", value, deriv)
               for i, (deriv, value) in enumerate(zip(derivations, values)))
    return Dataset(tuple(records), spec.shape), truth


def generate_random(spec: GenSpec) -> Dataset:
    """Same derivation distribution, representations independent of them."""
    _, tree_rng, value_rng = _streams(spec.seed)
    shape = spec.shape.array_shape()
    derivations = _sample_derivations(spec, tree_rng)
    # One block draws the same stream as one draw per record, in order.
    values = value_rng.normal(0.0, 1.0, (len(derivations), *shape))
    records = (Record(f"r{i:04d}", value, deriv)
               for i, (deriv, value) in enumerate(zip(derivations, values)))
    return Dataset(tuple(records), spec.shape)


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
    records = []
    for referent, message in zip(LANGUAGE_REFERENTS, messages):
        deriv = parse_derivation(referent)
        rid = "-".join(referent.replace("(", "").replace(")", "").split())
        records.append(Record(rid, encode_message(message, alphabet), deriv))
    return Dataset(tuple(records), CodeShape(MESSAGE_LENGTH, MESSAGE_VOCAB))


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
