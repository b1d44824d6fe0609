"""Binary derivation trees: parsing, formatting, size, and edit distance.

A derivation describes how an input decomposes into primitive parts.  It is
either a single primitive symbol or a strictly binary combination of two
smaller derivations.  The text format is a minimal s-expression::

    D ::= SYMBOL | "(" D D ")"

with arbitrary whitespace between tokens.  Symbols are opaque, case-sensitive
tokens that may not contain whitespace or parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class DerivationSyntaxError(ValueError):
    """Malformed derivation text.  ``offset`` is a byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _is_valid_symbol_name(name: str) -> bool:
    return bool(name) and not any(c.isspace() or c in "()" for c in name)


@dataclass(frozen=True)
class Symbol:
    """A primitive token.  Equality and hashing are exact string equality."""

    name: str

    def __post_init__(self):
        if not _is_valid_symbol_name(self.name):
            raise ValueError(
                f"symbol name must be a non-empty token without whitespace "
                f"or parentheses: {self.name!r}"
            )

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Leaf:
    symbol: Symbol

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("leaf", self.symbol)))
        object.__setattr__(self, "_size", 1)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Leaf) and self.symbol == other.symbol

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_derivation(self)


@dataclass(frozen=True, eq=False)
class Node:
    left: "Derivation"
    right: "Derivation"

    def __post_init__(self):
        # Hash and size cached at construction: the hash lets ``__eq__``
        # return early on a mismatch and keeps dict keys O(1) per node.
        object.__setattr__(self, "_hash", hash(("node", self.left, self.right)))
        object.__setattr__(self, "_size", self.left._size + self.right._size)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Node or self._hash != other._hash:
            return False
        # Iterative, so arbitrarily deep trees compare without recursion.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for x, y in ((a.left, b.left), (a.right, b.right)):
                if x is y:
                    continue
                if type(x) is not type(y) or x._hash != y._hash:
                    return False
                if type(x) is Node:
                    stack.append((x, y))
                elif x.symbol.name != y.symbol.name:
                    return False
        return True

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_derivation(self)


Derivation = Union[Leaf, Node]


def size(d: Derivation) -> int:
    """Number of leaves in the derivation (1 for a bare primitive)."""
    return d._size


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, char_offset) pairs; tokens are '(', ')' or symbol names."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c, i
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
            yield text[start:i], start


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def parse_derivation(text: str) -> Derivation:
    """Parse derivation text into a tree.

    Raises DerivationSyntaxError (with a byte offset) on empty input,
    unbalanced parentheses, nodes whose arity is not exactly 2, or trailing
    tokens after a complete derivation.
    """

    def fail(message: str, char_offset: int):
        raise DerivationSyntaxError(message, _byte_offset(text, char_offset))

    result: Derivation | None = None
    # Each open frame: (children so far, offset of its '(').
    stack: list[tuple[list[Derivation], int]] = []

    def complete(d: Derivation, offset: int):
        nonlocal result
        if stack:
            children = stack[-1][0]
            if len(children) == 2:
                fail("node arity must be 2: unexpected third child", offset)
            children.append(d)
        elif result is None:
            result = d
        else:
            fail("trailing tokens after complete derivation", offset)

    for token, offset in _tokenize(text):
        if token == "(":
            if result is not None:
                fail("trailing tokens after complete derivation", offset)
            stack.append(([], offset))
        elif token == ")":
            if not stack:
                fail("unbalanced ')'", offset)
            children, _ = stack.pop()
            if len(children) != 2:
                fail(f"node arity must be 2, found {len(children)}", offset)
            complete(Node(children[0], children[1]), offset)
        else:
            complete(Leaf(Symbol(token)), offset)

    if stack:
        fail("unbalanced '(': missing ')'", stack[-1][1])
    if result is None:
        raise DerivationSyntaxError("empty input", 0)
    return result


def format_derivation(d: Derivation) -> str:
    """Canonical text form: single spaces, '(' and ')' delimiters.

    ``parse_derivation(format_derivation(d)) == d`` for every derivation.
    """
    parts: list[str] = []
    stack: list[Derivation | str] = [d]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif isinstance(t, Leaf):
            parts.append(t.symbol.name)
        else:
            parts.append("(")
            stack += (")", t.right, " ", t.left)
    return "".join(parts)


def primitives_of(d: Derivation) -> tuple[Symbol, ...]:
    """Distinct leaf symbols of ``d``, in lexicographic order."""
    return _compile([d]).symbols


@dataclass(frozen=True)
class _Dag:
    """The distinct subtrees of some derivations, numbered in evaluation order.

    A leaf is keyed by its symbol and a node by its children's ids, so equal
    subtrees get one id however often they occur.  Ids ``0 .. len(symbols)-1``
    are the leaves, id ``i`` for ``symbols[i]`` (lexicographic order); then
    come the nodes by height, in discovery order within a height.  Node
    ``i`` has children ``left[i]`` and ``right[i]``, which are -1 for a leaf.
    ``levels[h - 1]`` is the id range ``(lo, hi)`` of the nodes of height
    ``h``; children always have lower ids, so evaluating the ids in order,
    one level slice at a time, is bottom-up.  ``roots`` has one id per
    compiled derivation.
    """

    size: int
    symbols: tuple[Symbol, ...]
    left: np.ndarray
    right: np.ndarray
    levels: tuple[tuple[int, int], ...]
    roots: np.ndarray


def _compile(derivations: Iterable[Derivation]) -> _Dag:
    trees = list(derivations)  # keeps every node alive, so ``id`` stays unique
    ids: dict = {}  # symbol, (left id, right id) or id(node object) -> id
    heights: list[int] = []  # by discovery id
    children: list[int] = []  # left and right child by discovery id, flat
    roots: list[int] = []
    for d in trees:
        # Iterative postorder: ``(node,)`` marks a node whose children are
        # done.  A node object met before is not walked again.
        stack: list = [d]
        done: list[int] = []
        while stack:
            t = stack.pop()
            if type(t) is tuple:
                r, l = done.pop(), done.pop()
                key = (l, r)
            elif isinstance(t, Leaf):
                key, l, r = t.symbol, -1, -1
            elif id(t) in ids:
                done.append(ids[id(t)])
                continue
            else:
                stack += ((t,), t.right, t.left)
                continue
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(heights)
                heights.append(0 if l < 0 else 1 + max(heights[l], heights[r]))
                children += (l, r)
            if type(t) is tuple:
                ids[id(t[0])] = i
            done.append(i)
        roots.append(done[0])

    # Renumber: the leaves in symbol order, then the nodes by height.
    symbols = tuple(sorted((k for k in ids if isinstance(k, Symbol)),
                           key=lambda s: s.name))
    height = np.array(heights, dtype=np.intp)
    order = np.argsort(height, kind="stable")
    order[:len(symbols)] = [ids[s] for s in symbols]
    new_id = np.empty(len(order) + 1, dtype=np.intp)
    new_id[order], new_id[-1] = np.arange(len(order)), -1
    left, right = new_id[np.array(children, dtype=np.intp).reshape(-1, 2)[order]].T
    ends = list(accumulate(np.bincount(height).tolist()))
    return _Dag(len(order), symbols, left, right, tuple(zip(ends, ends[1:])),
                new_id[np.array(roots, dtype=np.intp)])


def tree_edit_distance(d1: Derivation, d2: Derivation) -> int:
    """Edit distance between two derivations.

    Substituting one leaf symbol for a different one costs 1; inserting or
    deleting a whole subtree costs its leaf count.  Matching identical leaves
    costs 0, so the distance is a metric: symmetric, zero exactly on equal
    trees, and obeying the triangle inequality.

    One entry of ``pairwise_tree_edit_distances([d1, d2])``, with its cost.
    """
    return pairwise_tree_edit_distances([d1, d2])[0][1]


def pairwise_tree_edit_distances(trees: Sequence[Derivation]) -> list[list[int]]:
    """Full symmetric ``tree_edit_distance`` matrix over ``trees``.

    Fills an m x m table over the m distinct subtrees of ``trees``, so a
    subtree pair shared across trees is solved once: O(m^2) time and memory,
    and no recursion.  The table is int64, as leaf counts outgrow 32 bits:
    ``Node(t, t)`` nested 40 times has 2^40 leaves.  Trees of 2^60 leaves or
    more raise OverflowError.
    """
    if any(t._size >= 1 << 60 for t in trees):
        raise OverflowError("tree edit distance needs fewer than 2^60 leaves per tree")
    dag = _compile(trees)
    # Ids run by height, so each height is a block of ids from ``start[h]``.
    # Id -1 (table row m) stands for the children of a leaf; as it is far from
    # everything (twice ``far`` still fits), a term using it never wins.
    m, top, n_leaves = dag.size, len(dag.levels), len(dag.symbols)
    start = np.array([0, n_leaves, *(hi for _, hi in dag.levels)])
    height = np.repeat(np.arange(top + 1), np.diff(start))
    left, right = dag.left, dag.right
    leaves = np.zeros(m + 1, dtype=np.int64)
    leaves[:n_leaves] = 1
    for lo, hi in dag.levels:
        leaves[lo:hi] = leaves[left[lo:hi]] + leaves[right[lo:hi]]

    far = np.iinfo(np.int64).max // 2
    dist = np.full((m + 1, m + 1), far, dtype=np.int64)
    dist[:n_leaves, :n_leaves] = 1 - np.eye(n_leaves, dtype=np.int64)
    # Each term for a pair of height sum s reads pairs of smaller sums, so
    # one batched step fills a sum: every a with h(a) <= h(b), against the
    # block of b ids of the height s - h(a), into both halves of the table.
    for s in range(1, 2 * top + 1):
        a = np.arange(start[max(0, s - top)], start[s // 2 + 1])
        first, count = start[s - height[a]], np.diff(start)[s - height[a]]
        a = np.repeat(a, count)
        b = np.arange(len(a)) + np.repeat(first - np.cumsum(count) + count, count)
        la, ra, lb, rb = left[a], right[a], left[b], right[b]
        d = dist[la, lb] + dist[ra, rb]
        for term in (dist[a, lb] + leaves[rb], dist[a, rb] + leaves[lb],
                     dist[la, b] + leaves[ra], dist[ra, b] + leaves[la]):
            np.minimum(d, term, out=d)
        dist[a, b] = dist[b, a] = d
    return dist[np.ix_(dag.roots, dag.roots)].tolist()


def all_derivations(symbols: Sequence[Symbol], max_size: int) -> list[Derivation]:
    """Every derivation with at most ``max_size`` leaves over ``symbols``.

    Ordered by size, then by recursive construction order.  Subtrees are
    shared between results, which keeps exhaustive distance checks cheap.
    """
    if max_size < 1:
        return []
    by_size: list[list[Derivation]] = [[]]  # index 0 unused
    by_size.append([Leaf(s) for s in symbols])
    for n in range(2, max_size + 1):
        trees: list[Derivation] = []
        for k in range(1, n):
            for left in by_size[k]:
                for right in by_size[n - k]:
                    trees.append(Node(left, right))
        by_size.append(trees)
    out: list[Derivation] = []
    for n in range(1, max_size + 1):
        out.extend(by_size[n])
    return out
