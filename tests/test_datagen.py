"""Synthetic generation and the fixture languages.

Core claims:
    - generation is bit-exactly reproducible from the seed, its output at
      fixed seeds is pinned by digest, and derivations do not change when
      only the noise level changes
    - the block sampler gives the very trees of one ``Generator.integers``
      call per decision, and its bounded draw equals numpy's value by value
    - the returned generating table has zero error on noiseless data, and on
      noisy data its mean squared-L2 error matches dim * sigma^2
    - random (structure-free) data fits far worse than matched compositional
      data
    - the two fixture languages contain exactly the published 8 rows, with
      one-hot 4x16 encodings and the documented token-to-column mapping,
      which refuses a vocab its tokens and padding letters cannot fill
"""

import hashlib
import re
import string

import numpy as np
import pytest
from pytest import approx

from treerec import (
    CodeShape,
    DistanceSpec,
    FitConfig,
    GenSpec,
    Leaf,
    LinearComposition,
    Node,
    VectorShape,
    closed_form_fit,
    decode_message,
    code_alphabet,
    fig5_alphabets,
    fig5_languages,
    fit,
    format_derivation,
    generate_compositional,
    generate_random,
    is_hard_code,
    tre_datum,
)
from treerec import datagen
from treerec.datagen import LANGUAGE_MESSAGES, LANGUAGE_REFERENTS
from treerec.derivation import _leaf

SQL2 = DistanceSpec("squared_l2")


def tree_depth(d):
    if isinstance(d, Leaf):
        return 1
    return 1 + max(tree_depth(d.left), tree_depth(d.right))


def _random_tree(rng, names, depth):
    """The per-call sampler: one ``rng.integers`` call per decision."""
    if depth == 1:
        return _leaf(names[int(rng.integers(len(names)))])
    shallow = int(rng.integers(1, depth)) if depth > 2 else 1
    deep_on_left = bool(rng.integers(2))
    deep = _random_tree(rng, names, depth - 1)
    other = _random_tree(rng, names, shallow)
    return Node(deep, other) if deep_on_left else Node(other, deep)


def reference_derivations(spec, rng):
    names = [f"p{i}" for i in range(spec.num_primitives)]
    lo, hi = spec.depth_range
    return [_random_tree(rng, names, int(rng.integers(lo, hi + 1)))
            for _ in range(spec.num_records)]


class TestBlockSampler:
    BOUNDS = (1, 2, 3, 5, 2**31 + 1, 2**32 - 1, 2**32)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_bounded_draw_equals_numpy(self, seed):
        # A mixed sequence long enough to refill the block several times;
        # 2**31 + 1 rejects about half its draws, and a bound of 1 takes none.
        ks = np.random.default_rng(seed + 100).choice(self.BOUNDS, 3 * datagen._BLOCK).tolist()
        draws = datagen._raw_draws(np.random.default_rng(seed))
        numpy_rng = np.random.default_rng(seed)
        got = [datagen._bounded(draws, k) for k in ks]
        assert got == [int(numpy_rng.integers(k)) for k in ks]

    def test_bound_of_one_takes_no_draw(self):
        draws = datagen._raw_draws(np.random.default_rng(3))
        assert [datagen._bounded(draws, 1) for _ in range(5)] == [0] * 5
        first = int(np.random.default_rng(3).integers(0, 1 << 32, dtype=np.uint32))
        assert next(draws) == first

    @pytest.mark.parametrize("spec,refills", [
        (GenSpec(1, VectorShape(2), depth_range=(1, 4), num_records=200, seed=1), 0),
        (GenSpec(5, VectorShape(2), depth_range=(3, 3), num_records=200, seed=2), 0),
        (GenSpec(4, VectorShape(2), depth_range=(2, 7), num_records=200, seed=3), 0),
        (GenSpec(3, VectorShape(2), depth_range=(1, 6), num_records=3000, seed=11), 5),
    ], ids=["one_primitive", "fixed_depth", "depth_2_7", "many_blocks"])
    def test_same_trees_as_per_call_draws(self, spec, refills, monkeypatch):
        read = []
        raw_draws = datagen._raw_draws

        def counted(rng):
            for u in raw_draws(rng):
                read.append(u)
                yield u

        monkeypatch.setattr(datagen, "_raw_draws", counted)
        got = datagen._sample_derivations(spec, datagen._streams(spec.seed)[1])
        want = reference_derivations(spec, datagen._streams(spec.seed)[1])
        assert len(got) == len(want) == spec.num_records
        assert all(a is b for a, b in zip(got, want))
        assert len(read) > refills * datagen._BLOCK


class TestGenerateCompositional:
    def test_bit_exact_reproducibility(self):
        spec = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=20,
                       noise_sigma=0.2, seed=77)
        d1, t1 = generate_compositional(spec)
        d2, t2 = generate_compositional(spec)
        for r1, r2 in zip(d1.records, d2.records):
            assert r1.id == r2.id
            assert r1.derivation == r2.derivation
            assert np.array_equal(r1.representation, r2.representation)
        for s in t1.entries:
            assert np.array_equal(t1.entries[s], t2.entries[s])

    @pytest.mark.parametrize("spec,digest", [
        (GenSpec(6, VectorShape(5), num_records=40, noise_sigma=0.3, seed=123),
         "c5aad4ffe58928ab66921a319fe63464f179a839ae8dc3d2b8d90e7a45548606"),
        (GenSpec(4, CodeShape(3, 4), num_records=25, noise_sigma=0.05, seed=5,
                 composition=LinearComposition(0.5 * np.eye(3), 0.25 * np.eye(3))),
         "0a3f5410aa011d4e15affa2def11422d605f654346345a43aadf2959fcc730f3"),
    ], ids=["vector", "linear_code"])
    def test_output_is_pinned(self, spec, digest):
        # The noise is one (n, *shape) draw, which gives the same stream as
        # one draw per record in record order; the digests come from
        # per-record draws.
        h = hashlib.sha256()
        for rec in generate_compositional(spec)[0].records:
            h.update(rec.id.encode())
            h.update(format_derivation(rec.derivation).encode())
            h.update(rec.representation.tobytes())
        assert h.hexdigest() == digest

    def test_distinct_seeds_differ(self):
        spec_a = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=20, seed=1)
        spec_b = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=20, seed=2)
        da, _ = generate_compositional(spec_a)
        db, _ = generate_compositional(spec_b)
        assert any(not np.array_equal(a.representation, b.representation)
                   for a, b in zip(da.records, db.records))

    def test_derivations_invariant_to_noise_level(self):
        base = dict(num_primitives=5, shape=VectorShape(6), num_records=25, seed=3)
        quiet, _ = generate_compositional(GenSpec(noise_sigma=0.0, **base))
        loud, _ = generate_compositional(GenSpec(noise_sigma=1.0, **base))
        for a, b in zip(quiet.records, loud.records):
            assert a.derivation == b.derivation

    def test_depth_range_respected(self):
        spec = GenSpec(num_primitives=3, shape=VectorShape(2), depth_range=(2, 5),
                       num_records=60, seed=5)
        data, _ = generate_compositional(spec)
        depths = {tree_depth(r.derivation) for r in data.records}
        assert depths <= set(range(2, 6))
        assert len(depths) > 1

    def test_generating_table_is_exact_without_noise(self):
        spec = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=30, seed=4)
        data, truth = generate_compositional(spec)
        config = FitConfig(distance=SQL2)
        for rec in data.records:
            assert tre_datum(truth, config, rec) == 0.0

    def test_noiseless_fit_recovers(self):
        spec = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=30, seed=4)
        data, _ = generate_compositional(spec)
        assert fit(data, FitConfig(distance=SQL2, seed=0)).aggregate < 1e-3

    def test_error_at_generating_table_matches_noise_level(self):
        # each record's error is the squared norm of its noise draw, so the
        # mean approaches dim * sigma^2
        dim, sigma = 8, 0.5
        spec = GenSpec(num_primitives=6, shape=VectorShape(dim), num_records=200,
                       noise_sigma=sigma, seed=21)
        data, truth = generate_compositional(spec)
        config = FitConfig(distance=SQL2)
        mean_tre = np.mean([tre_datum(truth, config, r) for r in data.records])
        assert mean_tre == approx(dim * sigma**2, rel=0.2)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_noise_must_be_non_negative_and_finite(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            GenSpec(num_primitives=2, shape=VectorShape(2), noise_sigma=sigma)

    @pytest.mark.parametrize("field,value", [
        ("num_primitives", 2.5), ("num_primitives", True), ("num_records", float("inf")),
        ("num_records", 4.0), ("seed", 1.5), ("seed", True),
        ("depth_range[1]", (1, 2.5)), ("depth_range[0]", (True, 2))], ids=str)
    def test_integer_settings_refuse_other_numbers(self, field, value):
        name = field.split("[")[0]
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer"):
            GenSpec(**{"num_primitives": 2, "shape": VectorShape(2), name: value})

    def test_numpy_integer_settings_are_stored_as_int(self):
        spec = GenSpec(num_primitives=np.int64(3), shape=VectorShape(2),
                       depth_range=(np.int64(1), np.int64(3)), num_records=np.int64(5),
                       seed=np.int64(3))
        settings = (spec.num_primitives, *spec.depth_range, spec.num_records, spec.seed)
        assert [type(v) for v in settings] == [int] * 5
        assert settings == (3, 1, 3, 5, 3)

    @pytest.mark.parametrize("value", [(1, 2, 3), 5, (4,)], ids=str)
    def test_depth_range_must_be_a_pair(self, value):
        with pytest.raises(ValueError, match=r"^depth_range must be a pair of integers"):
            GenSpec(num_primitives=2, shape=VectorShape(2), depth_range=value)


class TestGenerateRandom:
    def test_output_is_pinned(self):
        # About 10 blocks of the tree stream; the digest comes from the
        # per-call sampler.
        spec = GenSpec(3, VectorShape(4), depth_range=(1, 6), num_records=3000, seed=11)
        h = hashlib.sha256()
        for rec in generate_random(spec).records:
            h.update(rec.id.encode())
            h.update(format_derivation(rec.derivation).encode())
            h.update(rec.representation.tobytes())
        assert h.hexdigest() == (
            "9c9442370c7efe00b0f9426459a75d9cdc1e0a77efd7d398aa1025108c8213ee")

    def test_reproducible_and_seed_sensitive(self):
        spec = GenSpec(num_primitives=5, shape=VectorShape(6), num_records=20, seed=9)
        d1 = generate_random(spec)
        d2 = generate_random(spec)
        for r1, r2 in zip(d1.records, d2.records):
            assert np.array_equal(r1.representation, r2.representation)
        d3 = generate_random(GenSpec(num_primitives=5, shape=VectorShape(6),
                                     num_records=20, seed=10))
        assert any(not np.array_equal(a.representation, b.representation)
                   for a, b in zip(d1.records, d3.records))

    def test_fits_much_worse_than_matched_compositional(self):
        ratios = []
        for seed in range(3):
            base = dict(num_primitives=8, shape=VectorShape(16), num_records=100,
                        seed=seed)
            comp_data, _ = generate_compositional(GenSpec(noise_sigma=0.1, **base))
            rand_data = generate_random(GenSpec(**base))
            comp_fit = closed_form_fit(comp_data)
            rand_fit = closed_form_fit(rand_data)
            ratios.append(rand_fit.aggregate / comp_fit.aggregate)
        assert np.mean(ratios) > 5.0


class TestFixtureLanguages:
    def test_eight_records_each(self):
        lang_a, lang_b = fig5_languages()
        assert len(lang_a.records) == len(lang_b.records) == 8

    def test_rows_are_one_hot_4x16(self):
        for lang in fig5_languages():
            for rec in lang.records:
                assert rec.representation.shape == (4, 16)
                assert is_hard_code(rec.representation)
                assert rec.representation.sum(axis=1) == approx(np.ones(4))

    def test_messages_decode_to_published_table(self):
        (lang_a, lang_b), (alpha_a, alpha_b) = fig5_languages(), fig5_alphabets()
        for lang, alpha, key in ((lang_a, alpha_a, "A"), (lang_b, alpha_b, "B")):
            for rec, referent, message in zip(lang.records, LANGUAGE_REFERENTS,
                                              LANGUAGE_MESSAGES[key]):
                assert format_derivation(rec.derivation) == referent
                assert decode_message(rec.representation, alpha) == message

    def test_specific_published_rows(self):
        lang_a, lang_b = fig5_languages()
        alpha_a, alpha_b = fig5_alphabets()
        row_a = {format_derivation(r.derivation): r for r in lang_a.records}
        row_b = {format_derivation(r.derivation): r for r in lang_b.records}
        assert decode_message(
            row_a["((red square) (blue star))"].representation, alpha_a) == "oooo"
        assert decode_message(
            row_b["((red circle) (blue star))"].representation, alpha_b) == "jjjj"

    def test_referent_structure(self):
        lang_a, _ = fig5_languages()
        for rec in lang_a.records:
            d = rec.derivation
            assert isinstance(d, Node)
            assert isinstance(d.left, Node) and isinstance(d.right, Node)
            assert all(isinstance(leaf, Leaf) for leaf in
                       (d.left.left, d.left.right, d.right.left, d.right.right))

    def test_alphabet_rule(self):
        # observed tokens sorted first, then unused letters
        assert code_alphabet(("jjjj", "oppp"), 16) == "jop" + "abcdefghiklmn"
        alpha_a, alpha_b = fig5_alphabets()
        assert alpha_a.startswith("jop") and len(alpha_a) == 16
        assert alpha_b.startswith("bejo") and len(alpha_b) == 16
        assert len(set(alpha_a)) == 16 and len(set(alpha_b)) == 16

    def test_alphabet_rejects_overflow(self):
        with pytest.raises(ValueError):
            code_alphabet(("abcd", "efgh"), 4)

    def test_alphabet_runs_out_of_padding(self):
        # Two observed tokens and the 24 other lowercase letters make 26.
        assert code_alphabet(("ab",), 26) == string.ascii_lowercase
        with pytest.raises(ValueError,
                           match="^not enough padding characters for requested vocab$"):
            code_alphabet(("ab",), 27)
