"""Derivation trees, parser, and tree edit distance.

Core claims:
    - parse/format round-trip exactly, with byte-offset syntax errors
    - size counts leaves
    - the four hand-derived edit distances (0, 1, 1, 2) hold
    - edit distance is a metric, checked exhaustively over all derivations
      of size <= 4 on a 3-symbol alphabet
    - the subtree-table implementation agrees with an independent naive
      recursion and with an independent bottom-up dynamic program, with every
      height sum filled as broadcast blocks, as flat batches, or both mixed
      in one call
    - a tree built from shared subtree objects costs its distinct subtrees,
      however many leaves it has
    - derivations are interned: equal derivations are one object, also when
      built concurrently, unpickled or copied, and they are immutable
    - a derivation pickles as its compiled subtree table, in bytes that stay
      loadable across versions
"""

import copy
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treerec import (
    DerivationSyntaxError,
    GenSpec,
    Leaf,
    Node,
    Symbol,
    VectorShape,
    all_derivations,
    format_derivation,
    pairwise_tree_edit_distances,
    parse_derivation,
    generate_random,
    primitives_of,
    size,
    tree_edit_distance,
)
from treerec import derivation
from treerec.derivation import _compile

A, B, C = Symbol("a"), Symbol("b"), Symbol("c")

# Message and byte offset of the syntax error for each malformed text.
SYNTAX_ERRORS = {
    "": ("empty input", 0),
    "   ": ("empty input", 0),
    "(": ("unbalanced '(': missing ')'", 0),
    "((a b)": ("unbalanced '(': missing ')'", 0),
    "(a (b c)": ("unbalanced '(': missing ')'", 0),
    ")": ("unbalanced ')'", 0),
    "(a b))": ("unbalanced ')'", 5),
    "()": ("node arity must be 2, found 0", 1),
    "(a)": ("node arity must be 2, found 1", 2),
    "(a b c)": ("node arity must be 2: unexpected third child", 5),
    "(a (b c) d)": ("node arity must be 2: unexpected third child", 9),
    "((a b) (c d) (e f))": ("node arity must be 2: unexpected third child", 17),
    "(é b c)": ("node arity must be 2: unexpected third child", 6),
    " ( é b c)": ("node arity must be 2: unexpected third child", 8),
    "a b": ("trailing tokens after complete derivation", 2),
    "(a b) c": ("trailing tokens after complete derivation", 6),
    "a (b c)": ("trailing tokens after complete derivation", 2),
    "(a b)(c d)": ("trailing tokens after complete derivation", 5),
}


def assert_syntax_error(text):
    message, offset = SYNTAX_ERRORS[text]
    with pytest.raises(DerivationSyntaxError) as err:
        parse_derivation(text)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


def naive_edit_distance(a, b):
    """Direct transcription of the distance recursion, no memoization."""
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return 0 if a.symbol == b.symbol else 1
    if isinstance(a, Leaf):
        return min(naive_edit_distance(a, b.left) + size(b.right),
                   naive_edit_distance(a, b.right) + size(b.left))
    if isinstance(b, Leaf):
        return min(naive_edit_distance(a.left, b) + size(a.right),
                   naive_edit_distance(a.right, b) + size(a.left))
    return min(
        naive_edit_distance(a.left, b.left) + naive_edit_distance(a.right, b.right),
        naive_edit_distance(a, b.left) + size(b.right),
        naive_edit_distance(a, b.right) + size(b.left),
        naive_edit_distance(b, a.left) + size(a.right),
        naive_edit_distance(b, a.right) + size(a.left),
    )


def bottomup_distance_matrix(trees):
    """Independent table-filling evaluation of the same recursion.

    Processes tree pairs in order of increasing total size, so every
    sub-lookup is already filled; never recurses.
    """
    index = {t: i for i, t in enumerate(trees)}
    n = len(trees)
    dist = np.full((n, n), -1, dtype=np.int64)
    order = sorted(range(n), key=lambda i: size(trees[i]))
    pairs = sorted(
        ((i, j) for i in order for j in order),
        key=lambda ij: size(trees[ij[0]]) + size(trees[ij[1]]),
    )
    for i, j in pairs:
        a, b = trees[i], trees[j]
        if isinstance(a, Leaf) and isinstance(b, Leaf):
            dist[i, j] = 0 if a.symbol == b.symbol else 1
        elif isinstance(a, Leaf):
            bl, br = index[b.left], index[b.right]
            dist[i, j] = min(dist[i, bl] + size(b.right), dist[i, br] + size(b.left))
        elif isinstance(b, Leaf):
            al, ar = index[a.left], index[a.right]
            dist[i, j] = min(dist[al, j] + size(a.right), dist[ar, j] + size(a.left))
        else:
            al, ar = index[a.left], index[a.right]
            bl, br = index[b.left], index[b.right]
            dist[i, j] = min(
                dist[al, bl] + dist[ar, br],
                dist[i, bl] + size(b.right),
                dist[i, br] + size(b.left),
                dist[al, j] + size(a.right),
                dist[ar, j] + size(a.left),
            )
    return dist


def random_tree(rng, symbols, leaves):
    if leaves == 1:
        return Leaf(symbols[rng.integers(len(symbols))])
    split = int(rng.integers(1, leaves))
    return Node(random_tree(rng, symbols, split),
                random_tree(rng, symbols, leaves - split))


# Strategy for hypothesis: trees over a 3-symbol alphabet, <= 16 leaves.
trees_st = st.recursive(
    st.sampled_from([Leaf(A), Leaf(B), Leaf(C)]),
    lambda children: st.builds(Node, children, children),
    max_leaves=16,
)


class TestSymbol:
    def test_equality_and_hash_by_name(self):
        assert Symbol("red") == Symbol("red")
        assert hash(Symbol("red")) == hash(Symbol("red"))
        assert Symbol("red") != Symbol("Red")

    @pytest.mark.parametrize("bad", ["", "a b", "(", "x)", "a\tb", "a\n"])
    def test_rejects_invalid_names(self, bad):
        with pytest.raises(ValueError):
            Symbol(bad)


class TestInterning:
    def test_equal_derivations_are_one_object(self):
        text = "((a b) (c (a b)))"
        t = parse_derivation(text)
        assert t is parse_derivation(text)
        assert Node(Leaf(A), Leaf(B)) is parse_derivation("(a b)") is t.left
        assert t.right.right is t.left
        assert Leaf(Symbol("a")) is Leaf(A)
        assert Node(Leaf(A), Leaf(B)) is not Node(Leaf(B), Leaf(A))

    def test_immutable(self):
        t = parse_derivation("(a b)")
        for name in ("left", "right", "_size", "_height", "new"):
            with pytest.raises(AttributeError):
                setattr(t, name, Leaf(C))
        with pytest.raises(AttributeError):
            Leaf(A).symbol = B
        with pytest.raises(AttributeError):
            del t.left
        assert format_derivation(t) == "(a b)" and size(t) == 2

    def test_pickle_and_deepcopy_return_the_interned_object(self):
        t = parse_derivation("((a b) (c a))")
        assert pickle.loads(pickle.dumps(t)) is t
        assert pickle.loads(pickle.dumps(Leaf(A))) is Leaf(A)
        assert copy.deepcopy(t) is t
        assert copy.copy(t) is t

    def test_pickle_is_linear_in_distinct_subtrees(self):
        # Node(t, t) nested 40 times has 2^40 leaves but 41 distinct subtrees.
        t = Leaf(A)
        for _ in range(40):
            t = Node(t, t)
        _, (names, left, right) = t.__reduce__()
        assert names == ["a"] and len(left) == len(right) == 41
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t

    # ((b a) (a (b a))) as pickled since derivations reduce to their table.
    PICKLED = (b"\x80\x04\x95[\x00\x00\x00\x00\x00\x00\x00\x8c\x12treerec.derivation"
               b"\x94\x8c\x08_rebuild\x94\x93\x94]\x94(\x8c\x01a\x94\x8c\x01b\x94e]\x94("
               b"J\xff\xff\xff\xffJ\xff\xff\xff\xffK\x01K\x00K\x02e]\x94(J\xff\xff\xff"
               b"\xffJ\xff\xff\xff\xffK\x00K\x02K\x03e\x87\x94R\x94.")

    def test_pickle_is_the_compiled_table_in_stable_bytes(self):
        t = parse_derivation("((b a) (a (b a)))")
        dag = _compile([t])
        assert t.__reduce__()[1] == ([s.name for s in dag.symbols],
                                     dag.left.tolist(), dag.right.tolist())
        assert pickle.dumps(t, protocol=4) == self.PICKLED
        assert pickle.loads(self.PICKLED) is t

    def test_unpickling_rebuilds_symbols_with_no_live_leaf(self):
        # No leaf of these names is live once the parsed tree is dropped, so
        # unpickling builds their symbols, and validates them.
        text = "(unpickle_x (unpickle_y unpickle_x))"
        blob = pickle.dumps(parse_derivation(text))
        t = pickle.loads(blob)
        assert format_derivation(t) == text
        assert t.left is t.right.right is Leaf(Symbol("unpickle_x"))
        del t
        with pytest.raises(ValueError, match="symbol name"):
            pickle.loads(blob.replace(b"unpickle_y", b"unpickle(y"))

    @pytest.mark.parametrize("race", range(3))
    def test_threads_parsing_the_same_texts_get_the_same_objects(self, race):
        # Symbols no other test uses, so every tree is built during the race.
        rng = np.random.default_rng(race)
        symbols = [Symbol(f"race{race}_{i}") for i in range(3)]
        texts = [format_derivation(random_tree(rng, symbols, int(rng.integers(1, 30))))
                 for _ in range(200)]
        start = threading.Barrier(8)
        results = [None] * 8

        def parse_all(k):
            start.wait()
            results[k] = [parse_derivation(text) for text in texts]

        threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for trees in results[1:]:
            assert all(a is b for a, b in zip(trees, results[0], strict=True))
        assert [format_derivation(t) for t in results[0]] == texts

    def test_a_leaf_is_complete_before_its_table_holds_it(self, monkeypatch):
        # Parsing looks a leaf up without the intern lock, so another thread
        # can find a leaf as soon as the table holds it.
        stored = []

        class CheckingTable(weakref.WeakValueDictionary):
            def __setitem__(self, key, leaf):
                stored.append((key, leaf.symbol.name, leaf._size, leaf._height))
                super().__setitem__(key, leaf)

        monkeypatch.setattr(Leaf, "_table", CheckingTable())
        parse_derivation("(complete_a (complete_b complete_a))")
        assert stored == [("complete_a", "complete_a", 1, 0), ("complete_b", "complete_b", 1, 0)]


class TestParse:
    def test_single_primitive(self):
        assert parse_derivation("a") == Leaf(A)

    def test_nested_referent(self):
        got = parse_derivation("((red circle) (blue triangle))")
        want = Node(
            Node(Leaf(Symbol("red")), Leaf(Symbol("circle"))),
            Node(Leaf(Symbol("blue")), Leaf(Symbol("triangle"))),
        )
        assert got == want

    def test_arbitrary_whitespace(self):
        assert parse_derivation(" ( a\n\t b )  ") == Node(Leaf(A), Leaf(B))

    @pytest.mark.parametrize("text", ["(a b c)", "(a)", "()"])
    def test_arity_errors(self, text):
        assert_syntax_error(text)

    def test_empty_input(self):
        for text in ("", "   "):
            assert_syntax_error(text)

    def test_unbalanced_open(self):
        # The offset is that of the innermost '(' left open.
        for text in ("(", "((a b)", "(a (b c)"):
            assert_syntax_error(text)

    def test_unbalanced_close(self):
        for text in (")", "(a b))"):
            assert_syntax_error(text)

    def test_trailing_tokens(self):
        for text in ("a b", "(a b) c", "a (b c)", "(a b)(c d)"):
            assert_syntax_error(text)

    def test_error_reports_byte_offset(self):
        # A third child is reported where it ends: at a symbol, or at the
        # ')' that closes a node.
        for text in ("(a b c)", "(a (b c) d)", "((a b) (c d) (e f))"):
            assert_syntax_error(text)

    def test_offset_is_bytes_not_chars(self):
        # two-byte character before the error position
        for text in ("(é b c)", " ( é b c)"):
            assert_syntax_error(text)


class TestFormat:
    def test_leaf(self):
        assert format_derivation(Leaf(A)) == "a"

    def test_node(self):
        assert format_derivation(Node(Leaf(A), Leaf(B))) == "(a b)"

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(1234)
        symbols = [Symbol(f"s{i}") for i in range(6)]
        for _ in range(1000):
            t = random_tree(rng, symbols, int(rng.integers(1, 33)))
            assert parse_derivation(format_derivation(t)) == t

    @given(trees_st)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, t):
        assert parse_derivation(format_derivation(t)) == t


class TestSize:
    def test_leaf_is_one(self):
        assert size(Leaf(A)) == 1

    def test_pair_is_two(self):
        assert size(Node(Leaf(A), Leaf(B))) == 2

    def test_left_nested_is_three(self):
        assert size(Node(Node(Leaf(A), Leaf(B)), Leaf(C))) == 3

    @given(trees_st)
    @settings(max_examples=100, deadline=None)
    def test_size_adds(self, t):
        if isinstance(t, Node):
            assert size(t) == size(t.left) + size(t.right)


class TestPrimitivesOf:
    def test_leaf(self):
        assert primitives_of(Leaf(A)) == (A,)

    def test_dedup_and_order(self):
        t = Node(Node(Leaf(B), Leaf(A)), Leaf(A))
        assert primitives_of(t) == (A, B)


class TestEditDistanceHandValues:
    def test_identical_primitives(self):
        assert tree_edit_distance(Leaf(A), Leaf(A)) == 0

    def test_one_leaf_substitution(self):
        assert tree_edit_distance(parse_derivation("(a b)"),
                                  parse_derivation("(a c)")) == 1

    def test_leaf_vs_pair(self):
        # min(d(a,a) + |b|, d(a,b) + |a|) = min(1, 2)
        assert tree_edit_distance(parse_derivation("a"),
                                  parse_derivation("(a b)")) == 1

    def test_swapped_children_cost_two(self):
        # no swap move exists; cheapest is two substitutions
        assert tree_edit_distance(parse_derivation("(a b)"),
                                  parse_derivation("(b a)")) == 2

    def test_doubled_trees_of_2_to_the_40_leaves(self):
        def doubled(symbol, times):
            t = Leaf(symbol)
            for _ in range(times):
                t = Node(t, t)
            return t

        # every leaf substituted; the leaf count needs 64-bit integers
        assert tree_edit_distance(doubled(A, 40), doubled(B, 40)) == 2**40
        with pytest.raises(OverflowError):
            tree_edit_distance(doubled(A, 60), doubled(B, 1))


def assert_agrees_with_bottomup_dp(trees):
    """``pairwise_tree_edit_distances(trees)`` equals the bottom-up DP over
    the distinct subtrees of ``trees``."""
    subtrees, stack = {}, list(trees)
    while stack:
        t = stack.pop()
        if t not in subtrees:
            subtrees[t] = len(subtrees)
            stack += [t.left, t.right] if isinstance(t, Node) else []
    ids = [subtrees[t] for t in trees]
    expected = bottomup_distance_matrix(list(subtrees))[np.ix_(ids, ids)]
    assert (np.array(pairwise_tree_edit_distances(trees)) == expected).all()


def generated_trees(num_primitives, depth_range, num_records, seed):
    data = generate_random(GenSpec(num_primitives=num_primitives, shape=VectorShape(2),
                                   depth_range=depth_range, num_records=num_records, seed=seed))
    return [r.derivation for r in data.records]


# ``_TED_BLOCK`` at 0 fills every height sum as blocks, at 10^18 as flat batches.
BOTH_FILLS = pytest.mark.parametrize("block", [0, 10**18], ids=["blocks", "flat"])


class TestEditDistanceGenerated:
    def test_generated_records_agree_with_bottomup_dp(self):
        # Records as the analyses see them: 16 primitives, depth 1-4 and
        # repeated derivations, so many subtree pairs share a height.
        trees = generated_trees(16, (1, 4), 150, 4)
        assert len(set(trees)) < len(trees)
        assert_agrees_with_bottomup_dp(trees)

    @BOTH_FILLS
    def test_either_fill_agrees_with_bottomup_dp(self, block, monkeypatch):
        monkeypatch.setattr(derivation, "_TED_BLOCK", block)
        assert_agrees_with_bottomup_dp(generated_trees(16, (1, 4), 150, 4))

    def test_one_call_mixing_both_fills_agrees_with_bottomup_dp(self, monkeypatch):
        # Over 3 primitives at depth 1-7 the middle height sums hold at least
        # 1024 subtree pairs per ordered height pair, the outer ones fewer.
        monkeypatch.setattr(derivation, "_TED_BLOCK", 1024)
        trees = generated_trees(3, (1, 7), 120, 4)
        dag = _compile(trees)
        width = [len(dag.symbols)] + [hi - lo for lo, hi in dag.levels]
        per_pair = [np.mean([width[h] * width[s - h] for h in range(len(width))
                             if 0 <= s - h < len(width)]) for s in range(1, 2 * len(width) - 1)]
        assert min(per_pair) < 1024 <= max(per_pair)  # over the sums filled
        assert_agrees_with_bottomup_dp(trees)


@pytest.fixture(scope="module")
def matrix():
    trees = all_derivations([A, B, C], 4)
    assert len(trees) == 471  # (1 + 1*3 + 2*9 + 5*27) shapes x symbols
    return trees, np.array(pairwise_tree_edit_distances(trees))


@pytest.fixture(scope="module")
def bottomup(matrix):
    return bottomup_distance_matrix(matrix[0])


class TestEditDistanceExhaustive:
    """All derivations of size <= 4 over {a, b, c}: 471 trees."""

    def test_identity(self, matrix):
        _, dist = matrix
        assert (np.diag(dist) == 0).all()
        # zero only on the diagonal: distinct trees are at distance >= 1
        off = dist + np.eye(len(dist), dtype=np.int64)
        assert (off > 0).all()

    def test_symmetry(self, matrix):
        _, dist = matrix
        assert (dist == dist.T).all()

    def test_triangle_inequality(self, matrix):
        _, dist = matrix
        for k in range(dist.shape[0]):
            assert (dist[:, k:k + 1] + dist[k:k + 1, :] >= dist).all()

    def test_delete_all_insert_all_upper_bound(self, matrix):
        trees, dist = matrix
        sizes = np.array([size(t) for t in trees])
        assert (dist <= sizes[:, None] + sizes[None, :]).all()

    def test_agrees_with_bottomup_dp(self, matrix, bottomup):
        assert (bottomup == matrix[1]).all()

    @BOTH_FILLS
    def test_either_fill_agrees_with_bottomup_dp(self, matrix, bottomup, block, monkeypatch):
        monkeypatch.setattr(derivation, "_TED_BLOCK", block)
        assert (np.array(pairwise_tree_edit_distances(matrix[0])) == bottomup).all()

    def test_agrees_with_naive_recursion(self, matrix):
        # Full naive recursion over every (4,4) pair is too slow; cover all
        # pairs with total size <= 6 plus a fixed random sample of the rest.
        trees, dist = matrix
        small = [i for i, t in enumerate(trees) if size(t) <= 3]
        for i in small:
            for j in small:
                assert naive_edit_distance(trees[i], trees[j]) == dist[i, j]
        rng = np.random.default_rng(99)
        n = len(trees)
        for _ in range(2000):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            assert naive_edit_distance(trees[i], trees[j]) == dist[i, j]

    @given(trees_st, trees_st)
    @settings(max_examples=150, deadline=None)
    def test_naive_agreement_property(self, t1, t2):
        if size(t1) + size(t2) <= 10:
            assert tree_edit_distance(t1, t2) == naive_edit_distance(t1, t2)
