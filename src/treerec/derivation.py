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
from typing import Iterator, Sequence, Union


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
        # Hash and size cached at construction so edit-distance memo lookups
        # stay O(1) per node.
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
    seen: set[Symbol] = set()
    stack: list[Derivation] = [d]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            seen.add(t.symbol)
        else:
            stack.append(t.left)
            stack.append(t.right)
    return tuple(sorted(seen, key=lambda s: s.name))


def dataset_primitives(derivations: Sequence[Derivation]) -> tuple[Symbol, ...]:
    """Union of ``primitives_of`` over several derivations, lexicographic."""
    seen: set[Symbol] = set()
    for d in derivations:
        seen.update(primitives_of(d))
    return tuple(sorted(seen, key=lambda s: s.name))


def _edit_distance(a: Derivation, b: Derivation,
                   memo: dict[tuple[Derivation, Derivation], int]) -> int:
    key = (a, b)
    got = memo.get(key)
    if got is not None:
        return got
    a_leaf = isinstance(a, Leaf)
    b_leaf = isinstance(b, Leaf)
    if a_leaf and b_leaf:
        value = 0 if a.symbol == b.symbol else 1
    elif a_leaf:
        value = min(_edit_distance(a, b.left, memo) + b.right._size,
                    _edit_distance(a, b.right, memo) + b.left._size)
    elif b_leaf:
        value = min(_edit_distance(a.left, b, memo) + a.right._size,
                    _edit_distance(a.right, b, memo) + a.left._size)
    else:
        value = min(
            _edit_distance(a.left, b.left, memo) + _edit_distance(a.right, b.right, memo),
            _edit_distance(a, b.left, memo) + b.right._size,
            _edit_distance(a, b.right, memo) + b.left._size,
            _edit_distance(b, a.left, memo) + a.right._size,
            _edit_distance(b, a.right, memo) + a.left._size,
        )
    memo[key] = value
    memo[(b, a)] = value
    return value


def tree_edit_distance(d1: Derivation, d2: Derivation) -> int:
    """Edit distance between two derivations.

    Substituting one leaf symbol for a different one costs 1; inserting or
    deleting a whole subtree costs its leaf count.  Matching identical leaves
    costs 0, so the distance is a metric: symmetric, zero exactly on equal
    trees, and obeying the triangle inequality.

    Memoized on structural identity of subtree pairs; cost is bounded by the
    product of the two trees' subtree counts.
    """
    return _edit_distance(d1, d2, {})


def pairwise_tree_edit_distances(trees: Sequence[Derivation]) -> list[list[int]]:
    """Full symmetric distance matrix over ``trees``, sharing one memo so
    repeated subtree pairs are solved once across the whole collection."""
    memo: dict[tuple[Derivation, Derivation], int] = {}
    return [[_edit_distance(a, b, memo) for b in trees] for a in trees]


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
