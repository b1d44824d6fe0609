"""Binary derivation trees: parsing, formatting, size, and edit distance.

A derivation describes how an input decomposes into primitive parts.  It is
either a single primitive symbol or a strictly binary combination of two
smaller derivations.  The text format is a minimal s-expression::

    D ::= SYMBOL | "(" D D ")"

with arbitrary whitespace between tokens.  Symbols are opaque, case-sensitive
tokens that may not contain whitespace or parentheses.

Derivations are interned (hash-consed): building a derivation equal to a
live one returns that object, so ``==`` is ``is`` and hashing is by
identity.  They are immutable, and the intern tables hold them weakly.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Sequence, Union

import numpy as np


class DerivationSyntaxError(ValueError):
    """Malformed derivation text.  ``offset`` is a byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Symbol:
    """A primitive token.  Equality and hashing are exact string equality."""

    name: str

    def __post_init__(self):
        if not self.name or any(c.isspace() or c in "()" for c in self.name):
            raise ValueError(
                f"symbol name must be a non-empty token without whitespace "
                f"or parentheses: {self.name!r}"
            )

    def __str__(self) -> str:
        return self.name


_intern_lock = threading.Lock()


class _Interned:
    """Base of ``Leaf`` and ``Node``: immutable, with leaf count and height
    cached at construction, compared and hashed by identity."""

    __slots__ = ("_size", "_height", "__weakref__")

    @classmethod
    def _intern(cls, key, **fields):
        # Each class keeps a weak table from its key, a symbol name or the two
        # child objects, to its one instance; the lock makes check-then-store
        # atomic across threads.  The instance is stored only once its fields
        # are set, as the lookups for a live instance read the table unlocked.
        with _intern_lock:
            self = cls._table.get(key)
            if self is None:
                self = object.__new__(cls)
                for name, value in fields.items():
                    object.__setattr__(self, name, value)
                cls._table[key] = self
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # ``_compile``'s subtree table, not the nested objects, so that
        # pickling and copying do not recurse once per level.
        dag = _compile([self])
        return _rebuild, ([s.name for s in dag.symbols], dag.left.tolist(), dag.right.tolist())

    def __str__(self) -> str:
        return format_derivation(self)

    def __repr__(self) -> str:
        return f"parse_derivation({format_derivation(self)!r})"


class Leaf(_Interned):
    __slots__ = ("symbol",)
    _table = weakref.WeakValueDictionary()

    def __new__(cls, symbol: Symbol):
        # Keyed by name, which is what makes two symbols equal, so that
        # ``_leaf`` can find a live leaf without building a symbol.
        return (cls._table.get(symbol.name)
                or cls._intern(symbol.name, symbol=symbol, _size=1, _height=0))


class Node(_Interned):
    __slots__ = ("left", "right")
    _table = weakref.WeakValueDictionary()

    def __new__(cls, left: "Derivation", right: "Derivation"):
        return (cls._table.get((left, right))
                or cls._intern((left, right), left=left, right=right,
                               _size=left._size + right._size,
                               _height=1 + max(left._height, right._height)))


Derivation = Union[Leaf, Node]


def _leaf(name: str) -> Leaf:
    """The leaf of symbol ``name``.  A live one is reused, so only a new
    name builds and validates a ``Symbol``."""
    return Leaf._table.get(name) or Leaf(Symbol(name))


def _rebuild(names: list[str], left: list[int], right: list[int]) -> Derivation:
    """Re-intern the subtrees of a ``_Dag`` table bottom-up; the root is the
    last id, as a single derivation's root is its one highest subtree."""
    trees = [_leaf(name) for name in names]
    for i in range(len(names), len(left)):
        trees.append(Node(trees[left[i]], trees[right[i]]))
    return trees[-1]


def size(d: Derivation) -> int:
    """Number of leaves in the derivation (1 for a bare primitive)."""
    return d._size


# A token is '(', ')' or a symbol name.  ``\s`` matches exactly the
# characters for which ``str.isspace()`` is true, which ``Symbol`` rejects.
_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_derivation(text: str) -> Derivation:
    """Parse derivation text into a tree.

    Raises DerivationSyntaxError (with a byte offset) on empty input,
    unbalanced parentheses, nodes whose arity is not exactly 2, or trailing
    tokens after a complete derivation.
    """

    def fail(message: str, at: int):
        # Token ``at``'s offset is found again here, not kept for every token.
        offset = next(islice(_TOKEN.finditer(text), at, None)).start()
        raise DerivationSyntaxError(message, len(text[:offset].encode("utf-8")))

    result: Derivation | None = None
    # Each open frame: (children so far, token index of its '(').
    stack: list[tuple[list[Derivation], int]] = []
    for at, token in enumerate(_TOKEN.findall(text)):
        if token == ")":
            if not stack:
                fail("unbalanced ')'", at)
            children, _ = stack.pop()
            if len(children) != 2:
                fail(f"node arity must be 2, found {len(children)}", at)
            d = Node(children[0], children[1])
        elif result is not None:
            fail("trailing tokens after complete derivation", at)
        elif token == "(":
            stack.append(([], at))
            continue
        else:
            d = _leaf(token)
        # Once ``result`` is set the stack stays empty, as every later '('
        # fails above.
        if not stack:
            result = d
        elif len(stack[-1][0]) == 2:
            fail("node arity must be 2: unexpected third child", at)
        else:
            stack[-1][0].append(d)

    if stack:
        fail("unbalanced '(': missing ')'", stack[-1][1])
    if result is None:
        raise DerivationSyntaxError("empty input", 0)
    return result


def format_derivation(d: Derivation) -> str:
    """Canonical text form: single spaces, '(' and ')' delimiters.

    ``parse_derivation(format_derivation(d)) is d`` for every derivation.
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

    Derivations are interned, so a distinct subtree is a distinct object and
    gets one id however often it occurs.  Ids ``0 .. len(symbols)-1`` are the
    leaves, id ``i`` for ``symbols[i]`` (lexicographic order); then come the
    nodes by height, in postorder discovery order within a height.  Node
    ``i`` has children ``left[i]`` and ``right[i]``, which are -1 for a leaf.
    ``levels[h - 1]`` is the id range ``(lo, hi)`` of the nodes of height
    ``h``; children always have lower ids, so evaluating the ids in order,
    one level slice at a time, is bottom-up.  ``roots`` has one id per
    compiled derivation.  There are ``len(left)`` distinct subtrees.
    """

    symbols: tuple[Symbol, ...]
    left: np.ndarray
    right: np.ndarray
    levels: tuple[tuple[int, int], ...]
    roots: np.ndarray


def _compile(derivations: Iterable[Derivation]) -> _Dag:
    """The ``_Dag`` of ``derivations``.  Subtrees are keyed by object, as
    derivations are interned: a subtree met before is not walked again."""
    roots = list(derivations)
    seen: set[Derivation] = set()
    leaves: list[Leaf] = []  # each list in postorder discovery order
    nodes: list[Node] = []
    for d in roots:
        stack = [d]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            if type(t) is Leaf:
                leaves.append(t)
            elif t.left in seen and t.right in seen:
                nodes.append(t)
            else:
                stack += (t, t.right, t.left)
                continue
            seen.add(t)
    # Number the leaves in symbol order, then the nodes by height (a stable sort).
    leaves.sort(key=lambda t: t.symbol.name)
    nodes.sort(key=lambda t: t._height)
    order = leaves + nodes
    ids = {t: i for i, t in enumerate(order)}
    no_children = [-1] * len(leaves)
    ends = list(accumulate(np.bincount(np.array([t._height for t in order],
                                                dtype=np.intp)).tolist()))
    return _Dag(tuple(t.symbol for t in leaves),
                np.array(no_children + [ids[t.left] for t in nodes], dtype=np.intp),
                np.array(no_children + [ids[t.right] for t in nodes], dtype=np.intp),
                tuple(zip(ends, ends[1:])), np.array([ids[d] for d in roots], dtype=np.intp))


_TED_BLOCK = 8192  # subtree pairs per height pair from which blocks outrun a flat batch


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

    Fills an m x m table over the m distinct subtrees of ``trees`` with no
    recursion, in increasing height sum h(a) + h(b), as each pair's terms read
    smaller sums: O(m^2) time and memory, a shared pair solved once.  A sum of
    at least ``_TED_BLOCK`` subtree pairs per height pair fills as broadcast
    blocks, one per height pair (a same-height block fills its square); a
    narrower one, as in combs, as one flat batch.  Both give the same integers.
    The int64 table holds the 2^40 leaves of ``Node(t, t)`` nested 40 times;
    trees of 2^60 leaves or more raise OverflowError.
    """
    if any(t._size >= 1 << 60 for t in trees):
        raise OverflowError("tree edit distance needs fewer than 2^60 leaves per tree")
    dag = _compile(trees)
    # Ids run by height: height h is the block of ids from ``start[h]``.  A
    # leaf's children map to row m, far from everything: terms using it never win.
    m, top, n_leaves = len(dag.left), len(dag.levels), len(dag.symbols)
    start = np.array([0, n_leaves, *(hi for _, hi in dag.levels)])
    width = np.diff(start)
    height = np.repeat(np.arange(top + 1), width)
    left, right = (np.where(ids < 0, m, ids) for ids in (dag.left, dag.right))
    leaves = np.zeros(m + 1, dtype=np.int64)
    leaves[:n_leaves] = 1
    for lo, hi in dag.levels:
        leaves[lo:hi] = leaves[left[lo:hi]] + leaves[right[lo:hi]]

    far = np.iinfo(np.int64).max // 2  # twice ``far`` still fits
    dist = np.full((m + 1, m + 1), far, dtype=np.int64)
    dist[:n_leaves, :n_leaves] = 1 - np.eye(n_leaves, dtype=np.int64)
    flat, w = dist.ravel(), m + 1
    ones = np.ones(top + 1)  # convolved with itself: the ordered height pairs of each sum
    wide = (np.convolve(width, width) / np.convolve(ones, ones) >= _TED_BLOCK).tolist()
    for s in range(1, 2 * top + 1):
        if wide[s]:  # one block per height pair; a same-height block fills its square
            pairs = [(np.arange(start[h], start[h + 1])[:, None],
                      np.arange(start[s - h], start[s - h + 1]))
                     for h in range(max(0, s - top), s // 2 + 1)]
        else:  # every a with h(a) <= h(b), against the ids b >= a of the height s - h(a)
            a = np.arange(start[max(0, s - top)], start[s // 2 + 1])
            first = np.maximum(start[s - height[a]], a)
            count = start[s - height[a] + 1] - first
            a = np.repeat(a, count)
            pairs = [(a, np.arange(len(a)) + np.repeat(first - np.cumsum(count) + count, count))]
        for a, b in pairs:  # fills each pair (a, b), flat or broadcast, into both halves
            la, ra, lb, rb = left[a], right[a], left[b], right[b]
            aw, law, raw = a * w, la * w, ra * w
            d = flat.take(law + lb) + flat.take(raw + rb)
            for at, cost in ((aw + lb, rb), (aw + rb, lb), (law + b, ra), (raw + b, la)):
                term = flat.take(at)
                term += leaves[cost]
                np.minimum(d, term, out=d)
            flat[aw + b] = flat[b * w + a] = d
    return dist.take(dag.roots, 0).take(dag.roots, 1).tolist()


def all_derivations(symbols: Sequence[Symbol], max_size: int) -> list[Derivation]:
    """Every derivation with at most ``max_size`` leaves over ``symbols``.

    Ordered by size, then by recursive construction order.
    """
    by_size: list[list[Derivation]] = [[], [Leaf(s) for s in symbols]]  # index 0 unused
    for n in range(2, max_size + 1):
        by_size.append([Node(left, right) for k in range(1, n)
                        for left in by_size[k] for right in by_size[n - k]])
    return [t for trees in by_size[1:max_size + 1] for t in trees]
