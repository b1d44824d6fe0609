"""Derivations far deeper than Python's recursion limit.

Core claim: every entry point that walks a derivation handles a 5000-leaf
left comb, a tree 5000 levels deep, without RecursionError.  Tree edit
distance is checked on a 1500-leaf comb, since its table is quadratic in
the number of distinct subtrees.
"""

import contextlib
import copy
import io
import json
import pickle

import numpy as np
import pytest

from treerec import (
    AdditiveComposition,
    Dataset,
    DistanceSpec,
    FitConfig,
    LinearComposition,
    PrimitiveTable,
    Symbol,
    VectorShape,
    closed_form_fit,
    eval_compositional,
    fit,
    format_derivation,
    homomorphism_residuals,
    parse_derivation,
    size,
    tree_edit_distance,
    write_dataset,
)
from treerec.cli import main as cli_main

LEAVES = 5000
TED_LEAVES = 1500
SQL2 = DistanceSpec("squared_l2")
ENTRIES = {Symbol("s0"): np.array([1.0, 0.0]),
           Symbol("s1"): np.array([0.0, 1.0]),
           Symbol("s2"): np.array([1.0, 1.0])}


def left_comb(leaves: int) -> str:
    """Text of the left comb (((s0 s1) s2) ...) with ``leaves`` leaves
    cycling through s0, s1 and s2."""
    names = [f"s{i % 3}" for i in range(leaves)]
    return "(" * (leaves - 1) + names[0] + "".join(f" {name})" for name in names[1:])


def comb_value(leaves: int) -> np.ndarray:
    counts = np.bincount(np.arange(leaves) % 3, minlength=3)
    return sum(c * ENTRIES[Symbol(f"s{i}")] for i, c in enumerate(counts))


def comb_dataset(*extra_rows) -> Dataset:
    """The comb plus its three leaves and ``extra_rows``, representations
    composed exactly."""
    rows = [(name.name, value, parse_derivation(name.name))
            for name, value in ENTRIES.items()]
    rows.append(("comb", comb_value(LEAVES), parse_derivation(left_comb(LEAVES))))
    rows += extra_rows
    return Dataset.build(rows, VectorShape(2))


def check_parse(tmp_path):
    assert size(parse_derivation(left_comb(LEAVES))) == LEAVES


def check_equality(tmp_path):
    text = left_comb(LEAVES)
    assert parse_derivation(text) == parse_derivation(text)
    assert parse_derivation(text) is parse_derivation(text)
    other = text.replace("s0", "s2", 1)  # the deepest leaf changed
    assert parse_derivation(text) != parse_derivation(other)
    assert parse_derivation(text) is not parse_derivation(other)


def check_repr(tmp_path):
    text = left_comb(LEAVES)
    assert repr(parse_derivation(text)) == f"parse_derivation({text!r})"


def check_format_round_trip(tmp_path):
    text = left_comb(LEAVES)
    assert format_derivation(parse_derivation(text)) == text


def check_pickle(tmp_path):
    t = parse_derivation(left_comb(LEAVES))
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t) is t


def check_eval(tmp_path):
    value = eval_compositional(PrimitiveTable(ENTRIES), AdditiveComposition(),
                               parse_derivation(left_comb(LEAVES)))
    assert np.array_equal(value, comb_value(LEAVES))


def check_fit_additive(tmp_path):
    report = fit(comb_dataset(), FitConfig(distance=SQL2))
    assert np.isfinite(report.aggregate)


def check_fit_linear(tmp_path):
    report = fit(comb_dataset(), FitConfig(distance=SQL2, composition=LinearComposition(),
                                           learn_composition=True, steps=5, restarts=1))
    assert report.steps_run == 5 and np.isfinite(report.aggregate)


def check_closed_form_fit(tmp_path):
    assert closed_form_fit(comb_dataset()).aggregate < 1e-12


def check_homomorphism_residuals(tmp_path):
    # With the comb's left child as a record, the comb is the one record
    # whose children are both records, and it composes exactly.
    data = comb_dataset(("left", comb_value(LEAVES - 1),
                         parse_derivation(left_comb(LEAVES - 1))))
    assert homomorphism_residuals(data, AdditiveComposition(), SQL2) == {"comb": 0.0}


def check_cli_fit(tmp_path):
    data, out = tmp_path / "comb.jsonl", tmp_path / "report.json"
    write_dataset(data, comb_dataset())
    assert cli_main(["fit", str(data), "--out", str(out)]) == 0
    assert np.isfinite(json.loads(out.read_text())["per_datum_tre"]["comb"])


def comb_pair(leaves: int) -> tuple[str, str]:
    """A left comb and its copy with the deepest leaf changed."""
    text = left_comb(leaves)
    return text, text.replace("s0", "s2", 1)


def check_tree_edit_distance(tmp_path):
    a, b = comb_pair(TED_LEAVES)
    assert tree_edit_distance(parse_derivation(a), parse_derivation(b)) == 1


def check_cli_editdist(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["editdist", *comb_pair(TED_LEAVES)]) == 0
    assert out.getvalue() == "1\n"


@pytest.mark.parametrize("check", [
    check_parse, check_equality, check_repr, check_format_round_trip, check_pickle,
    check_eval,
    check_fit_additive, check_fit_linear, check_closed_form_fit, check_cli_fit,
    check_homomorphism_residuals,
], ids=lambda f: f.__name__[len("check_"):])
def test_5000_leaf_left_comb(check, tmp_path):
    check(tmp_path)


@pytest.mark.parametrize("check", [check_tree_edit_distance, check_cli_editdist],
                         ids=lambda f: f.__name__[len("check_"):])
def test_1500_leaf_left_comb(check, tmp_path):
    check(tmp_path)
