"""Dataset/report file formats and the command-line surface.

Core claims:
    - dataset files round-trip bit-exactly in both shapes and both record
      forms (repr lists and token strings)
    - format errors carry 1-based line numbers and exit with code 1
    - exit codes: 0 success, 1 parse error, 2 config error, 3 divergence,
      including a cosine prediction of zero norm, named by step and record
    - generated files are accepted by fit (format closure); identical flags
      produce byte-identical outputs; ``gen --kind random`` writes the file of
      ``generate_random``, and shape flags given by halves exit with code 2
    - a written report can be re-ingested and its learned primitives
      re-evaluated to the recorded per-record errors; a malformed report
      shape is a format error; each primitive's key is searched from the
      previous one's, so a load reads the text once
    - a JSON boolean, or an integer beyond float range, is not a number
      anywhere in a dataset file, and JSON's NaN and Infinity literals are
      not finite values in a dataset file or a report
    - a header's numbers are checked as the shapes check them, and the
      writer refuses the alphabet the reader refuses
    - a dataset error names the first faulty line in file order, and a read
      parses each distinct derivation text once
    - JSON nested too deeply to parse is a format error: a dataset line names
      itself and a report names line 1
    - every line of the README's command-line example exits 0, and its
      library quick start runs without a warning and prints what its
      comments say
"""

import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from treerec import (
    CodeShape,
    Dataset,
    DatasetFormatError,
    DistanceSpec,
    FitConfig,
    GenSpec,
    LinearComposition,
    VectorShape,
    fig5_alphabets,
    fig5_languages,
    load_report,
    parse_derivation,
    read_dataset,
    tre_datum,
    fit,
    generate_compositional,
    generate_random,
    write_dataset,
)
import treerec.dataio as dataio
import treerec.solver as solver
from treerec.cli import main
from treerec.dataio import render_report, report_to_dict, write_report

SQL2 = DistanceSpec("squared_l2")
# Dataset files where a JSON boolean, or an integer beyond float range,
# stands for a number, with the line of the fault.
NON_NUMBERS = {
    "dim": ('{"dim": true}\n{"id": "x", "derivation": "a", "repr": [1.0]}\n', 1),
    "length": ('{"length": true, "vocab": 2, "alphabet": "ab"}\n'
               '{"id": "x", "derivation": "a", "tokens": "a"}\n', 1),
    "vocab": ('{"length": 1, "vocab": true, "alphabet": "a"}\n'
              '{"id": "x", "derivation": "a", "tokens": "a"}\n', 1),
    "repr": ('{"dim": 2}\n{"id": "x", "derivation": "a", "repr": [true, 0.0]}\n', 2),
    "repr_beyond_float": ('{"dim": 1}\n{"id": "x", "derivation": "a", "repr": [1%s]}\n'
                          % ("0" * 400), 2),
}
# Faulty records for a vector file of dim 2 whose line 2 has id "x", with
# what their errors say.
RECORD_FAULTS = {
    "bad derivation": ('{"id": "f", "derivation": "(a b", "repr": [1.0, 0.0]}',
                       "bad derivation"),
    "duplicate id": ('{"id": "x", "derivation": "a", "repr": [1.0, 0.0]}',
                     "duplicate record id 'x'"),
    "short repr": ('{"id": "f", "derivation": "a", "repr": [1.0]}', "expected 2"),
    "invalid JSON": ('{"id": "f",', "invalid JSON"),
}
CODE_HEADER = '{"length": 2, "vocab": 2, "alphabet": "ab"}'
# Whole dataset files with one fault each, with its line and message.
FILE_FAULTS = {
    "empty": ("", 1, "empty dataset file"),
    "blank lines": ("\n  \n", 1, "empty dataset file"),
    "header only": ('{"dim": 2}\n', 1, "dataset file has a header but no records"),
    "record not an object": ('{"dim": 2}\n[1.0, 0.0]\n', 2, "record must be a JSON object"),
    "missing id": ('{"dim": 2}\n{"derivation": "a", "repr": [1.0, 0.0]}\n', 2,
                   "record needs a non-empty string 'id'"),
    "empty id": ('{"dim": 2}\n{"id": "", "derivation": "a", "repr": [1.0, 0.0]}\n', 2,
                 "record needs a non-empty string 'id'"),
    "missing derivation": ('{"dim": 2}\n{"id": "x", "repr": [1.0, 0.0]}\n', 2,
                           "record needs a 'derivation' string"),
    "tokens under dim": ('{"dim": 2}\n{"id": "x", "derivation": "a", "tokens": "ab"}\n', 2,
                         "'tokens' records require a {length, vocab, alphabet} header"),
    "tokens too long": (CODE_HEADER + '\n{"id": "x", "derivation": "a", "tokens": "aba"}\n',
                        2, "'tokens' must be a string of length 2"),
    "tokens not a string": (CODE_HEADER + '\n{"id": "x", "derivation": "a", "tokens": [0, 1]}\n',
                            2, "'tokens' must be a string of length 2"),
}


def run_cli(*args, capsys=None):
    try:
        code = main(list(args))
    except SystemExit as e:  # argparse flag errors
        code = e.code
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def hand_file(tmp_path):
    path = tmp_path / "hand.jsonl"
    lines = [
        '{"dim": 2}',
        '{"id": "x1", "derivation": "a", "repr": [1.0, 0.0]}',
        '{"id": "x2", "derivation": "b", "repr": [0.0, 1.0]}',
        '{"id": "x3", "derivation": "(a b)", "repr": [1.0, 3.0]}',
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDatasetFiles:
    def test_vector_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(f"r{i}", rng.normal(0, 1, 5), parse_derivation("(a b)"))
                for i in range(4)]
        ds = Dataset.build(rows, VectorShape(5))
        path = tmp_path / "v.jsonl"
        write_dataset(path, ds)
        loaded, alphabet = read_dataset(path)
        assert alphabet is None
        assert loaded.shape == ds.shape
        for a, b in zip(ds.records, loaded.records):
            assert a.id == b.id and a.derivation == b.derivation
            assert np.array_equal(a.representation, b.representation)

    def test_code_round_trip_tokens_form(self, tmp_path):
        lang_a, _ = fig5_languages()
        alpha_a, _ = fig5_alphabets()
        path = tmp_path / "a.jsonl"
        write_dataset(path, lang_a, alpha_a)
        assert '"tokens"' in path.read_text()
        loaded, alphabet = read_dataset(path)
        assert alphabet == alpha_a
        for a, b in zip(lang_a.records, loaded.records):
            assert np.array_equal(a.representation, b.representation)
            assert a.derivation == b.derivation

    def test_code_round_trip_relaxed_repr_form(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(f"r{i}", rng.normal(0, 1, (3, 4)), parse_derivation("(a b)"))
                for i in range(3)]
        ds = Dataset.build(rows, CodeShape(3, 4))
        path = tmp_path / "c.jsonl"
        write_dataset(path, ds)
        assert '"repr"' in path.read_text()
        loaded, _ = read_dataset(path)
        for a, b in zip(ds.records, loaded.records):
            assert np.array_equal(a.representation, b.representation)

    @pytest.mark.parametrize("line,match", [
        ('{"id": "x", "derivation": "(a b", "repr": [1.0, 0.0]}', "derivation"),
        ('{"id": "x", "derivation": "a", "repr": [1.0]}', "expected 2"),
        ('{"id": "x", "derivation": "a"}', "exactly one"),
        ('{"id": "x", "derivation": "a", "repr": [1.0, 2.0], "tokens": "ab"}',
         "exactly one"),
        ('not json', "invalid JSON"),
    ])
    def test_record_errors_carry_line_numbers(self, tmp_path, line, match):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 2}\n' + line + "\n")
        with pytest.raises(DatasetFormatError, match=match) as err:
            read_dataset(path)
        assert err.value.line == 2

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"dim": 1}\n'
                        '{"id": "x", "derivation": "a", "repr": [1.0]}\n'
                        '{"id": "x", "derivation": "a", "repr": [2.0]}\n')
        with pytest.raises(DatasetFormatError, match="duplicate") as err:
            read_dataset(path)
        assert err.value.line == 3

    def test_header_errors(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"dims": 2}\n')
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("case", NON_NUMBERS)
    def test_non_numbers_carry_line_numbers(self, tmp_path, case):
        text, line = NON_NUMBERS[case]
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == line

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_carry_line_numbers(self, tmp_path, capsys, literal):
        path = tmp_path / "nan.jsonl"
        path.write_text('{"dim": 2}\n'
                        '{"id": "x", "derivation": "a", "repr": [1.0, 0.0]}\n'
                        f'{{"id": "y", "derivation": "b", "repr": [0.0, {literal}]}}\n'
                        '{"id": "z", "derivation": "(a b)", "repr": [1.0, 1.0]}\n')
        message = "line 3: record 'y': representation values must be finite"
        with pytest.raises(DatasetFormatError, match=f"^{message}$"):
            read_dataset(path)
        code, _, err = run_cli("fit", str(path), "--steps", "5", capsys=capsys)
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    def test_file_fault_names_its_line_and_exits_one(self, tmp_path, capsys, fault):
        text, line, message = FILE_FAULTS[fault]
        path = tmp_path / "fault.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(f'line {line}: {message}')}$") as err:
            read_dataset(path)
        assert err.value.line == line
        code, _, err_text = run_cli("fit", str(path), capsys=capsys)
        assert code == 1
        assert err_text == f"error: line {line}: {message}\n"

    @pytest.mark.parametrize("fault", RECORD_FAULTS)
    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_last"])
    def test_first_faulty_line_is_reported(self, tmp_path, fault, nan_first):
        # One fault on line 3 and the other on line 5: line 3's is reported.
        record, match = RECORD_FAULTS[fault]
        nan = '{"id": "n", "derivation": "b", "repr": [NaN, 0.0]}'
        lines = ['{"dim": 2}', '{"id": "x", "derivation": "a", "repr": [1.0, 0.0]}',
                 nan, '{"id": "y", "derivation": "(a b)", "repr": [1.0, 1.0]}', record]
        if not nan_first:
            lines[2], lines[4] = lines[4], lines[2]
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="finite" if nan_first else match) as err:
            read_dataset(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("fault", [f for f in RECORD_FAULTS if f != "duplicate id"])
    @pytest.mark.parametrize("duplicate_first", [True, False],
                             ids=["duplicate_first", "duplicate_last"])
    def test_duplicate_id_against_parse_fault(self, tmp_path, fault, duplicate_first):
        # A duplicate id and a parse fault on lines 3 and 5: line 3's is reported.
        record, match = RECORD_FAULTS[fault]
        duplicate, duplicate_match = RECORD_FAULTS["duplicate id"]
        lines = ['{"dim": 2}', '{"id": "x", "derivation": "a", "repr": [1.0, 0.0]}',
                 duplicate, '{"id": "y", "derivation": "(a b)", "repr": [1.0, 1.0]}', record]
        if not duplicate_first:
            lines[2], lines[4] = lines[4], lines[2]
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=duplicate_match if duplicate_first else match) as err:
            read_dataset(path)
        assert err.value.line == 3

    def test_each_derivation_text_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "same.jsonl"
        path.write_text('{"dim": 1}\n' + "".join(
            f'{{"id": "r{i}", "derivation": "((a b) c)", "repr": [{i}]}}\n'
            for i in range(1000)))
        texts = []

        def counting_parse(text):
            texts.append(text)
            return parse_derivation(text)

        monkeypatch.setattr(dataio, "parse_derivation", counting_parse)
        dataset, _ = read_dataset(path)
        assert texts == ["((a b) c)"]
        deriv = parse_derivation("((a b) c)")
        assert len(dataset) == 1000
        assert all(rec.derivation is deriv for rec in dataset)
        assert [rec.representation[0] for rec in dataset] == list(range(1000))

    @pytest.mark.parametrize("reader", [read_dataset, load_report],
                             ids=["dataset", "report"])
    def test_non_utf8_byte_carries_line_number(self, hand_file, tmp_path, capsys, reader):
        path = tmp_path / "latin1.jsonl"
        if reader is load_report:
            run_cli("fit", str(hand_file), "--steps", "5", "--out", str(path), capsys=capsys)
            lines = path.read_bytes().splitlines(keepends=True)
        else:
            lines = hand_file.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError, match="^line 3: not UTF-8: byte 0xff$"):
            reader(path)
        if reader is read_dataset:
            code, _, err = run_cli("fit", str(path), capsys=capsys)
            assert code == 1
            assert err == "error: line 3: not UTF-8: byte 0xff\n"

    @pytest.mark.parametrize("where,line", [("record", 3), ("header", 1), ("report", 1)])
    def test_deeply_nested_json_names_its_line(self, tmp_path, capsys, where, line):
        deep = "[" * 10**5 + "]" * 10**5
        lines = ['{"dim": 1}', '{"id": "a", "derivation": "a", "repr": [1]}',
                 '{"id": "b", "derivation": "b", "repr": %s}' % deep]
        if where == "header":
            lines = [deep] + lines[1:2]
        path = tmp_path / "deep.json"
        path.write_text('{"shape": %s}\n' % deep if where == "report"
                        else "\n".join(lines) + "\n")
        reader = load_report if where == "report" else read_dataset
        with pytest.raises(DatasetFormatError, match=f"^line {line}: invalid JSON {where}:"):
            reader(path)
        if where != "report":
            code, _, err = run_cli("fit", str(path), capsys=capsys)
            assert code == 1
            assert err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize("header", [
        '{"dim": 2.5}', '{"dim": 0}', '{"length": 1, "vocab": true, "alphabet": "a"}',
        '{"length": 1, "vocab": 2, "alphabet": ["a", "b"]}'])
    def test_bad_header_numbers_and_alphabet_name_line_one(self, tmp_path, header):
        path = tmp_path / "h.jsonl"
        path.write_text(header + '\n{"id": "x", "derivation": "a", "repr": [1.0]}\n')
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 1

    def test_numpy_integer_dim_writes_and_reads_back(self, tmp_path):
        data, _ = generate_compositional(GenSpec(num_primitives=2, shape=VectorShape(np.int64(3)),
                                                 num_records=4, seed=1))
        path = tmp_path / "v.jsonl"
        write_dataset(path, data)
        loaded, _ = read_dataset(path)
        assert loaded.shape == VectorShape(3)
        assert all(np.array_equal(a.representation, b.representation)
                   for a, b in zip(data.records, loaded.records))

    def test_writer_refuses_the_alphabet_the_reader_refuses(self, tmp_path):
        # A list of the right characters once wrote a file that the reader
        # refused on line 1; the report header is checked the same way.
        lang_a, _ = fig5_languages()
        alpha_a, _ = fig5_alphabets()
        path = tmp_path / "a.jsonl"
        for alphabet in (list(alpha_a), alpha_a[:-1], alpha_a[:-1] + alpha_a[0]):
            with pytest.raises(ValueError, match="alphabet"):
                write_dataset(path, lang_a, alphabet)
            assert not path.exists()
        config = FitConfig(distance=DistanceSpec("l1"), steps=2)
        report = fit(lang_a, config)
        with pytest.raises(ValueError, match="alphabet"):
            report_to_dict(report, config, lang_a.shape, list(alpha_a))

    def test_token_outside_alphabet(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"length": 2, "vocab": 2, "alphabet": "ab"}\n'
                        '{"id": "x", "derivation": "a", "tokens": "az"}\n')
        with pytest.raises(DatasetFormatError, match="alphabet"):
            read_dataset(path)


class TestEditdistCommand:
    @pytest.mark.parametrize("d1,d2,expected", [
        ("(a b)", "(a c)", "1"),
        ("a", "a", "0"),
        ("a", "(a b)", "1"),
    ])
    def test_hand_values(self, capsys, d1, d2, expected):
        code, out, _ = run_cli("editdist", d1, d2, capsys=capsys)
        assert code == 0
        assert out.strip() == expected

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run_cli("editdist", "(a b", "a", capsys=capsys)
        assert code == 1
        assert "offset" in err


class TestGenCommand:
    def test_fig5_writes_two_eight_record_files(self, tmp_path, capsys):
        out = tmp_path / "langs"
        code, stdout, _ = run_cli("gen", "--kind", "fig5", "--out", str(out),
                                  capsys=capsys)
        assert code == 0
        for suffix in ("_A.jsonl", "_B.jsonl"):
            ds, _ = read_dataset(str(out) + suffix)
            assert len(ds.records) == 8

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        args = ["gen", "--kind", "compositional", "--primitives", "4",
                "--dim", "6", "--records", "10", "--noise", "0.2", "--seed", "3"]
        assert run_cli(*args, "--out", str(p1), capsys=capsys)[0] == 0
        assert run_cli(*args, "--out", str(p2), capsys=capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (("--dim", "4", "--length", "2", "--vocab", "3"),
         "give either --dim or --length/--vocab, not both"),
        (("--length", "4"), "--length and --vocab must be given together"),
        (("--vocab", "8"), "--length and --vocab must be given together"),
        (("--length", "1", "--vocab", "63"), "no default alphabet for vocab 63; supply one")],
        ids=["dim-and-code", "length-alone", "vocab-alone", "vocab-past-default-alphabet"])
    def test_shape_flag_faults_exit_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.jsonl"
        code, _, err = run_cli("gen", "--kind", "random", *flags, "--records", "3",
                               "--out", str(out), capsys=capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,name", [
        (("--dim", "0"), "dim"), (("--length", "0", "--vocab", "2"), "length"),
        (("--length", "2", "--vocab", "0"), "vocab")], ids=str)
    def test_empty_shape_exits_two(self, tmp_path, capsys, flags, name):
        out = tmp_path / "x.jsonl"
        code, _, err = run_cli("gen", "--kind", "random", *flags, "--out", str(out),
                               capsys=capsys)
        assert code == 2
        assert f"error: {name} must be an integer of at least 1" in err and not out.exists()

    @pytest.mark.parametrize("flags,shape", [
        (("--dim", "4"), VectorShape(4)), (("--length", "4", "--vocab", "8"), CodeShape(4, 8))],
        ids=["vector", "code"])
    def test_random_kind_writes_generate_random(self, tmp_path, capsys, flags, shape):
        out, want = tmp_path / "random.jsonl", tmp_path / "want.jsonl"
        code, stdout, _ = run_cli("gen", "--kind", "random", "--primitives", "3", *flags,
                                  "--records", "10", "--seed", "5", "--out", str(out),
                                  capsys=capsys)
        assert code == 0 and stdout == f"{out}\n"
        write_dataset(want, generate_random(GenSpec(3, shape, num_records=10, seed=5)))
        assert out.read_bytes() == want.read_bytes()
        assert read_dataset(out)[0].shape == shape

    def test_non_finite_noise_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code, _, err = run_cli("gen", "--kind", "compositional", "--noise", "nan",
                               "--out", str(out), capsys=capsys)
        assert code == 2
        assert "noise_sigma" in err and not out.exists()

    def test_code_shape_generation_feeds_fit(self, tmp_path, capsys):
        data_path = tmp_path / "code.jsonl"
        code, _, _ = run_cli("gen", "--kind", "compositional", "--primitives", "4",
                             "--length", "3", "--vocab", "5", "--records", "12",
                             "--noise", "0.1", "--out", str(data_path),
                             capsys=capsys)
        assert code == 0
        report_path = tmp_path / "r.json"
        code, _, _ = run_cli("fit", str(data_path), "--distance", "l1",
                             "--steps", "200", "--out", str(report_path),
                             capsys=capsys)
        assert code == 0
        assert np.isfinite(json.loads(report_path.read_text())["aggregate_tre"])


class TestFitCommand:
    def test_hand_instance_aggregate(self, hand_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli("fit", str(hand_file), "--distance", "squared_l2",
                             "--composition", "additive", "--steps", "2000",
                             "--out", str(report_path), capsys=capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["aggregate_tre"] == approx(4.0 / 9.0, abs=1e-3)
        assert report["config"]["seed"] == 0
        assert set(report["per_datum_tre"]) == {"x1", "x2", "x3"}

    def test_report_goes_to_stdout_without_out_flag(self, hand_file, capsys):
        code, out, _ = run_cli("fit", str(hand_file), "--steps", "100",
                               capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert "aggregate_tre" in report and "primitives" in report

    def test_generated_file_fits_clean(self, tmp_path, capsys):
        data_path = tmp_path / "data.jsonl"
        run_cli("gen", "--kind", "compositional", "--primitives", "5",
                "--dim", "8", "--records", "40", "--out", str(data_path),
                capsys=capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli("fit", str(data_path), "--out", str(report_path),
                             capsys=capsys)
        assert code == 0
        assert json.loads(report_path.read_text())["aggregate_tre"] < 1e-3

    def test_malformed_derivation_exits_one_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 1}\n'
                        '{"id": "x", "derivation": "a", "repr": [1.0]}\n'
                        '{"id": "y", "derivation": "(a b", "repr": [1.0]}\n')
        code, _, err = run_cli("fit", str(path), capsys=capsys)
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("case", NON_NUMBERS)
    def test_non_number_exits_one_with_line(self, tmp_path, capsys, case):
        text, line = NON_NUMBERS[case]
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        code, _, err = run_cli("fit", str(path), "--steps", "5", capsys=capsys)
        assert code == 1
        assert f"error: line {line}: " in err

    def test_bad_flag_value_exits_two(self, hand_file, capsys):
        code, _, _ = run_cli("fit", str(hand_file), "--distance", "chebyshev",
                             capsys=capsys)
        assert code == 2

    def test_missing_dataset_file_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli("fit", str(tmp_path / "nope.jsonl"), capsys=capsys)
        assert code == 2
        assert err.startswith("error: ") and "nope.jsonl" in err

    def test_linear_composition_learns_its_weights(self, hand_file, tmp_path, capsys):
        # --composition linear alone writes the library's learned-linear
        # report, byte for byte; there is no --learn-composition flag.
        report_path, want_path = tmp_path / "report.json", tmp_path / "want.json"
        code, _, _ = run_cli("fit", str(hand_file), "--composition", "linear",
                             "--restarts", "2", "--steps", "50", "--out", str(report_path),
                             capsys=capsys)
        assert code == 0
        dataset, alphabet = read_dataset(hand_file)
        config = FitConfig(distance=SQL2, composition=LinearComposition(),
                           learn_composition=True, restarts=2, steps=50)
        write_report(want_path, report_to_dict(fit(dataset, config), config, dataset.shape,
                                               alphabet, dataset=str(hand_file)))
        assert report_path.read_bytes() == want_path.read_bytes()
        code, _, _ = run_cli("fit", str(hand_file), "--learn-composition", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("flags", [("--lr", "nan"), ("--lr", "inf"), ("--tol", "nan")],
                             ids=" ".join)
    def test_non_finite_setting_exits_two(self, hand_file, capsys, flags):
        code, _, err = run_cli("fit", str(hand_file), *flags, "--steps", "5", capsys=capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("flags,name", [(("--tol", "-1"), "convergence_tol"),
                                            (("--lr", "0"), "learning_rate")], ids=str)
    def test_out_of_range_setting_exits_two(self, hand_file, capsys, flags, name):
        code, out, err = run_cli("fit", str(hand_file), *flags, "--steps", "5", capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} must be a finite number")

    def test_divergence_exits_three(self, hand_file, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run_cli("fit", str(hand_file), "--lr", "1e200",
                                   "--steps", "20", capsys=capsys)
        assert code == 3
        assert "step" in err

    def test_learned_linear_divergence_exits_three(self, hand_file, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run_cli("fit", str(hand_file), "--composition", "linear",
                                   "--lr", "1e200", "--steps", "20",
                                   capsys=capsys)
        assert code == 3
        assert "step 1" in err

    @pytest.mark.parametrize("flags", [(), ("--composition", "linear")],
                             ids=["additive", "linear"])
    def test_zero_norm_cosine_prediction_exits_three(self, hand_file, capsys, monkeypatch,
                                                     flags):
        # From zero entries every cosine prediction has norm 0.
        monkeypatch.setattr(solver, "_init_params", lambda problem, seed, restart:
                            np.zeros((len(problem.dag.symbols),) + problem.targets.shape[1:]))
        code, out, err = run_cli("fit", str(hand_file), "--distance", "cosine", *flags,
                                 capsys=capsys)
        assert (code, out) == (3, "")
        assert err == "error: cosine prediction has zero norm at step 0 in record 'x1'\n"

    def test_byte_identical_reports(self, tmp_path, capsys):
        data_path = tmp_path / "data.jsonl"
        run_cli("gen", "--kind", "compositional", "--primitives", "4", "--dim", "6",
                "--records", "15", "--noise", "0.1", "--out", str(data_path),
                capsys=capsys)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["fit", str(data_path), "--steps", "300", "--seed", "11"]
        assert run_cli(*args, "--out", str(r1), capsys=capsys)[0] == 0
        assert run_cli(*args, "--out", str(r2), capsys=capsys)[0] == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_reingestion_reproduces_errors(self, tmp_path, capsys):
        data_path = tmp_path / "data.jsonl"
        run_cli("gen", "--kind", "compositional", "--primitives", "4", "--dim", "6",
                "--records", "15", "--noise", "0.3", "--out", str(data_path),
                capsys=capsys)
        report_path = tmp_path / "report.json"
        run_cli("fit", str(data_path), "--steps", "500", "--out", str(report_path),
                capsys=capsys)
        payload, table, _ = load_report(report_path)
        dataset, _ = read_dataset(data_path)
        config = FitConfig(distance=DistanceSpec(payload["config"]["distance"]))
        for rec in dataset.records:
            recorded = payload["per_datum_tre"][rec.id]
            assert tre_datum(table, config, rec) == approx(recorded, abs=1e-9)

    def test_malformed_report_shape_is_a_format_error(self, hand_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run_cli("fit", str(hand_file), "--steps", "5", "--out", str(report_path),
                capsys=capsys)
        payload = json.loads(report_path.read_text())
        payload["shape"] = {"vocab": 2, "alphabet": "ab"}  # no length
        report_path.write_text(render_report(payload))
        shape_line = next(no for no, text in
                          enumerate(report_path.read_text().splitlines(), 1)
                          if text.startswith('  "shape":'))
        with pytest.raises(DatasetFormatError) as err:
            load_report(report_path)
        assert err.value.line == shape_line

    @pytest.mark.parametrize("fault", ["missing", "list", "short", "bool", "nested",
                                       "bad_name", "nan", "infinity"])
    def test_malformed_report_primitives_are_format_errors(self, tmp_path, capsys, fault):
        # Record ids equal the primitive names, so a primitive's key has to
        # be found after the "primitives" key, not in "per_datum_tre".
        data_path, report_path = tmp_path / "data.jsonl", tmp_path / "report.json"
        data_path.write_text('{"dim": 2}\n'
                             '{"id": "a", "derivation": "a", "repr": [1.0, 0.0]}\n'
                             '{"id": "b", "derivation": "b", "repr": [0.0, 1.0]}\n'
                             '{"id": "c", "derivation": "(a b)", "repr": [1.0, 3.0]}\n')
        run_cli("fit", str(data_path), "--steps", "5", "--out", str(report_path),
                capsys=capsys)
        payload = json.loads(report_path.read_text())
        primitives, key = payload["primitives"], '    "b":'
        if fault == "missing":
            del payload["primitives"]
            key = None
        elif fault == "list":
            payload["primitives"] = [[1.0, 0.0]]
            key = '  "primitives":'
        elif fault == "bad_name":
            primitives["b c"] = primitives.pop("b")
            key = '    "b c":'
        else:
            # render_report writes NaN and Infinity literals for non-finite floats.
            primitives["b"] = {"short": [1.0], "bool": [True, 0.0],
                               "nested": [[1.0, 0.0]], "nan": [math.nan, 0.0],
                               "infinity": [0.0, math.inf]}[fault]
        report_path.write_text(render_report(payload))
        lines = report_path.read_text().splitlines()
        start = next((no for no, text in enumerate(lines, 1)
                      if text.startswith('  "primitives":')), 1)
        want = 1 if key is None else next(no for no, text in enumerate(lines, 1)
                                          if no >= start and text.startswith(key))
        with pytest.raises(DatasetFormatError) as err:
            load_report(report_path)
        assert err.value.line == want

    def test_report_primitives_are_searched_from_the_previous_one(self, tmp_path, capsys,
                                                                  monkeypatch):
        # Each search starts where the last one ended, so loading reads the text once.
        data_path, report_path = tmp_path / "data.jsonl", tmp_path / "report.json"
        run_cli("gen", "--kind", "compositional", "--primitives", "6", "--dim", "3",
                "--records", "30", "--seed", "2", "--out", str(data_path), capsys=capsys)
        run_cli("fit", str(data_path), "--steps", "5", "--out", str(report_path),
                capsys=capsys)
        names = json.loads(report_path.read_text())["primitives"]
        key_line, starts = dataio._key_line, []

        def recorded(text, key, depth, *rest):
            if key in names:
                starts.append(rest[-1] if rest else 0)
            return key_line(text, key, depth, *rest)

        monkeypatch.setattr(dataio, "_key_line", recorded)
        load_report(report_path)
        assert len(starts) == len(names) == 6
        assert all(a < b for a, b in zip(starts, starts[1:]))

    def test_learned_composition_report_round_trip(self, tmp_path, capsys):
        lang_path = tmp_path / "langs"
        run_cli("gen", "--kind", "fig5", "--out", str(lang_path), capsys=capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli("fit", str(lang_path) + "_A.jsonl",
                             "--distance", "l1", "--composition", "linear",
                             "--steps", "300",
                             "--restarts", "1", "--out", str(report_path),
                             capsys=capsys)
        assert code == 0
        payload, table, _ = load_report(report_path)
        assert "composition_params" in payload
        assert table.composition_params is not None
        assert np.isfinite(payload["aggregate_tre"])
        dataset, _ = read_dataset(str(lang_path) + "_A.jsonl")
        config = FitConfig(distance=DistanceSpec("l1"),
                           composition=table.composition_params)
        for rec in dataset.records:
            recorded = payload["per_datum_tre"][rec.id]
            assert tre_datum(table, config, rec) == approx(recorded, abs=1e-9)


    @pytest.mark.parametrize("fault", ["missing_left", "wrong_side", "ragged", "non_numeric",
                                       "nan", "infinity", "not_object", "list", "truncated"])
    def test_malformed_report_weights_are_format_errors(self, tmp_path, capsys, fault):
        lang_path, report_path = tmp_path / "langs", tmp_path / "report.json"
        run_cli("gen", "--kind", "fig5", "--out", str(lang_path), capsys=capsys)
        run_cli("fit", str(lang_path) + "_A.jsonl", "--composition", "linear",
                "--steps", "5", "--restarts", "1",
                "--out", str(report_path), capsys=capsys)
        payload = json.loads(report_path.read_text())
        weights, key = payload["composition_params"], '    "left_weights":'
        if fault == "missing_left":
            del weights["left_weights"]
            key = '  "composition_params":'
        elif fault == "wrong_side":  # the 4 x 16 codes need 4 x 4 weights
            weights["left_weights"] = np.eye(5).tolist()
        elif fault == "ragged":
            weights["left_weights"][1].pop()
        elif fault in ("non_numeric", "nan", "infinity"):
            weights["right_weights"][2][0] = {"non_numeric": "0.5", "nan": math.nan,
                                              "infinity": -math.inf}[fault]
            key = '    "right_weights":'
        elif fault == "not_object":
            payload["composition_params"] = [weights["left_weights"]]
            key = '  "composition_params":'
        text = render_report([payload] if fault == "list" else payload)
        if fault == "truncated":
            text = text[:len(text) // 2]
        report_path.write_text(text)
        if fault == "list":
            want = 1
        elif fault == "truncated":
            with pytest.raises(json.JSONDecodeError) as decode:
                json.loads(text)
            want = decode.value.lineno
        else:
            want = next(no for no, line in enumerate(text.splitlines(), 1)
                        if line.startswith(key))
        with pytest.raises(DatasetFormatError) as err:
            load_report(report_path)
        assert err.value.line == want


class TestTopoCommand:
    def test_distance_faithful_dataset(self, tmp_path, capsys):
        path = tmp_path / "chain.jsonl"
        lines = ['{"dim": 1}']
        text = "a"
        for i in range(1, 6):
            lines.append(json.dumps(
                {"id": f"c{i}", "derivation": text, "repr": [float(i)]}))
            text = f"({text} a)"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("topo", str(path), "--distance", "l1", "--rank",
                               capsys=capsys)
        assert code == 0
        result = json.loads(out)
        assert result["coefficient"] == approx(1.0)
        assert result["n_pairs"] == 10

    def test_two_records_exit_two(self, tmp_path, capsys):
        path = tmp_path / "two.jsonl"
        path.write_text('{"dim": 1}\n'
                        '{"id": "x", "derivation": "a", "repr": [1.0]}\n'
                        '{"id": "y", "derivation": "(a a)", "repr": [2.0]}\n')
        code, _, _ = run_cli("topo", str(path), capsys=capsys)
        assert code == 2

    def test_constant_representations_exit_two(self, tmp_path, capsys):
        path = tmp_path / "const.jsonl"
        path.write_text('{"dim": 1}\n'
                        '{"id": "x", "derivation": "a", "repr": [1.0]}\n'
                        '{"id": "y", "derivation": "(a a)", "repr": [1.0]}\n'
                        '{"id": "z", "derivation": "((a a) a)", "repr": [1.0]}\n')
        code, _, err = run_cli("topo", str(path), capsys=capsys)
        assert code == 2
        assert "constant" in err


class TestGradcheckCommand:
    def test_additive_squared_l2_passes(self, capsys):
        code, out, _ = run_cli("gradcheck", "--composition", "additive",
                               "--distance", "squared_l2", "--trials", "10",
                               capsys=capsys)
        assert code == 0
        assert float(out.strip()) < 1e-6

    def test_linear_l1_passes(self, capsys):
        code, out, _ = run_cli("gradcheck", "--composition", "linear",
                               "--distance", "l1", "--trials", "5",
                               capsys=capsys)
        assert code == 0
        assert float(out.strip()) < 1e-4

    def test_threshold_exceeded_exits_nonzero(self, capsys):
        code, out, _ = run_cli("gradcheck", "--trials", "5",
                               "--threshold", "1e-15", capsys=capsys)
        assert code == 1

    @pytest.mark.parametrize("flags", [("--trials", "0"), ("--trials", "-3"),
                                       ("--threshold", "nan"), ("--threshold", "inf"),
                                       ("--threshold", "0"), ("--threshold", "-1")],
                             ids=" ".join)
    def test_check_of_nothing_exits_two(self, capsys, flags):
        # No trials would print a perfect 0.000e+00, and a threshold that is
        # NaN, infinite or not above 0 makes the exit code meaningless.
        code, out, err = run_cli("gradcheck", *flags, capsys=capsys)
        assert code == 2
        assert out == ""
        assert ("trial" if flags[0] == "--trials" else "threshold") in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treerec", "editdist", "(a b)", "(a c)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README.md's ``## heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[str]:
    """The lines of the ``sh`` block under README.md's ``## Command line``,
    with backslash continuations joined."""
    block = readme_block("Command line", "sh")
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.filterwarnings("error")
def test_readme_quick_start_runs_and_prints_its_comments(capsys):
    exec(readme_block("Library quick start", "python"), {})
    fit_tre, oracle_tre, topo, pairs = map(float, capsys.readouterr().out.split())
    assert fit_tre == approx(1.0 / 3.0, rel=1e-4)
    assert oracle_tre == approx(1.0 / 3.0, rel=1e-12)
    assert topo == approx(0.853, abs=5e-4)
    assert pairs == 6


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 7
    for line in commands:
        program, *args = shlex.split(line, comments=True)
        assert program == "treerec"
        assert run_cli(*args, capsys=capsys)[0] == 0, line
