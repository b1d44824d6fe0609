"""Seeded synthetic inputs for the treerec benchmark.

The inputs come from the benchmark's own numpy generator and are written as
dataset files in the README format, so a change to treerec's ``datagen`` or
``write_dataset`` cannot change what is measured.  Each workload also gets a
sidecar ``.npz`` that only the checker reads: leaf counts per record, the
targets and the generating table.

Trees are nested tuples: a leaf is a primitive index, a node is
``(left, right)``.  A tree of depth ``d > 1`` has one child of depth ``d - 1``
and one of a depth drawn from ``[1, d - 1]``, on a random side.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Mean l1 norm of a dim-16 standard normal vector; analysis entries are
# normalised to l1 norm 0.5 and the noise is scaled by the same factor.
_L1_NORM_16 = 16 * math.sqrt(2 / math.pi)


def _streams(seed: int):
    """Generators for the table, the trees and the noise.  The generating
    table is the same for every seed, so the TRE figures of different seeds
    stay comparable; the trees and the noise come from the seed."""
    table = np.random.default_rng(np.random.SeedSequence([0, 0]))
    trees, noise = (np.random.default_rng(np.random.SeedSequence([seed, k]))
                    for k in (1, 2))
    return table, trees, noise


def random_tree(rng: np.random.Generator, primitives: int, depth: int):
    if depth == 1:
        return int(rng.integers(primitives))
    deep = random_tree(rng, primitives, depth - 1)
    other = random_tree(rng, primitives, int(rng.integers(1, depth)))
    return (deep, other) if rng.integers(2) else (other, deep)


def tree_text(tree) -> str:
    if isinstance(tree, int):
        return f"p{tree}"
    return f"({tree_text(tree[0])} {tree_text(tree[1])})"


def leaf_counts(trees, primitives: int) -> np.ndarray:
    counts = np.zeros((len(trees), primitives))
    for i, tree in enumerate(trees):
        stack = [tree]
        while stack:
            t = stack.pop()
            if isinstance(t, int):
                counts[i, t] += 1.0
            else:
                stack.extend(t)
    return counts


def input_properties(trees) -> dict:
    """Record count, tree nodes, shared-subtree share and the largest tree."""
    nodes = 0
    max_leaves = 0
    distinct = set()
    for tree in trees:
        leaves = 0
        stack = [tree]
        while stack:
            t = stack.pop()
            nodes += 1
            distinct.add(t)
            if isinstance(t, int):
                leaves += 1
            else:
                stack.extend(t)
        max_leaves = max(max_leaves, leaves)
    return {
        "input.records": len(trees),
        "input.nodes": nodes,
        "input.subtree_share": 1.0 - len(distinct) / nodes,
        "input.max_leaves": max_leaves,
    }


def _linear_value(tree, table, lw, rw):
    if isinstance(tree, int):
        return table[tree]
    return (lw @ _linear_value(tree[0], table, lw, rw)
            + rw @ _linear_value(tree[1], table, lw, rw))


def make_inputs(spec: dict, seed: int) -> dict:
    """Trees, targets and generating table for one workload spec."""
    table_rng, tree_rng, noise_rng = _streams(seed)
    shape = tuple(spec["shape"])
    prims = spec["primitives"]
    lo, hi = spec["depth"]
    # Depths cycle through the range, so every seed has the same mix of
    # depths and about the same amount of work.
    trees = [random_tree(tree_rng, prims, lo + i % (hi - lo + 1))
             for i in range(spec["records"])]
    counts = leaf_counts(trees, prims)
    noise = spec["noise"]
    out = {"trees": trees, "counts": counts}

    if spec["composition"] == "linear":
        # Relaxed codes: each primitive row is a softmax over the vocabulary,
        # combined by near-averaging position mixers.
        logits = 2.0 * table_rng.normal(size=(prims,) + shape)
        table = np.exp(logits)
        table /= table.sum(axis=-1, keepdims=True)
        side = shape[0]
        lw = 0.5 * np.eye(side) + table_rng.normal(0.0, 0.05, (side, side))
        rw = 0.5 * np.eye(side) + table_rng.normal(0.0, 0.05, (side, side))
        clean = np.stack([_linear_value(t, table, lw, rw) for t in trees])
        out.update(lw=lw, rw=rw)
    else:
        table = table_rng.normal(size=(prims,) + shape)
        if spec.get("unit_ball"):
            # Every entry within l1 distance 0.5 of the origin, hence within
            # 1 of every other entry: the bound check's preconditions.
            table *= 0.5 / np.abs(table).sum(axis=1, keepdims=True)
            noise *= 0.5 / _L1_NORM_16
        clean = counts @ table
    out["table"] = table
    out["targets"] = clean + noise_rng.normal(0.0, noise, clean.shape)
    return out


def write_inputs(inputs: dict, data_path: Path, sidecar_path: Path) -> None:
    """Dataset file for treerec; sidecar arrays for the checker."""
    targets = inputs["targets"]
    shape = targets.shape[1:]
    if len(shape) == 1:
        header = {"dim": shape[0]}
    else:
        header = {"length": shape[0], "vocab": shape[1],
                  "alphabet": "abcdefghijklmnopqrstuvwxyz"[:shape[1]]}
    lines = [json.dumps(header)]
    for i, (tree, value) in enumerate(zip(inputs["trees"], targets)):
        lines.append(json.dumps({"id": f"r{i:05d}", "derivation": tree_text(tree),
                                 "repr": value.ravel().tolist()}))
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    arrays = {k: v for k, v in inputs.items() if isinstance(v, np.ndarray)}
    np.savez(sidecar_path, **arrays)
