"""Tests of the benchmark itself; they are not part of the library's suite.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
import types
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import treerec  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_every_check(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({k: v["unit"] for k, v in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    table = [row.split()[0] for row in proc.stdout.splitlines() if row.startswith("  ")]
    assert table and all(NAME.fullmatch(name) for name in table), table


def test_without_library_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "analysis", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_and_bounds_follow_the_contract():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_inputs_depend_only_on_the_seed(tmp_path):
    spec = dict(run.WORKLOADS["analysis"], **run.TINY["analysis"])
    texts = []
    for k, seed in enumerate((5, 5, 6)):
        data = tmp_path / f"d{k}.jsonl"
        inputs.write_inputs(inputs.make_inputs(spec, seed), data, tmp_path / f"d{k}.npz")
        texts.append(data.read_text())
    assert texts[0] == texts[1] != texts[2]


def checked_pass(tmp_path, name):
    """A tiny workload with its warm-up pass run and fully checked."""
    spec = dict(run.WORKLOADS[name], **run.TINY[name])
    made = inputs.make_inputs(spec, 3)
    data = tmp_path / "data.jsonl"
    inputs.write_inputs(made, data, tmp_path / "side.npz")
    dataset, alphabet = treerec.read_dataset(data)
    sidecar = {k: v for k, v in made.items() if k != "trees"}
    plan = {"workload": name, "seed": 3, "spec": spec}
    work = workload.WORKLOADS[name](treerec, plan, dataset, alphabet, sidecar)
    chk = workload.Checker()
    with work.warm_up():
        _, _, first = workload.run_pass(work.calls, chk, lambda _: nullcontext())
    work.check_first(chk, first)
    assert chk.failures == []
    return work, first


def failures_of(work, first, replaced: dict, repeat=False) -> list[str]:
    chk = workload.Checker()
    if repeat:
        work.check_repeat(chk, first, dict(first, **replaced))
    else:
        work.check_first(chk, dict(first, **replaced))
    return chk.failures


def test_perturbed_report_values_are_caught(tmp_path):
    work, first = checked_pass(tmp_path, "fit-linear")
    report, text = first["fit_linear_s"]
    doc = json.loads(text)
    doc["aggregate_tre"] *= 1 + 1e-12
    bad_text = treerec.dataio.render_report(doc)
    assert failures_of(work, first, {"fit_linear_s": (report, bad_text)}) == [
        "fit_linear_s: rendered report matches the fit"]
    assert failures_of(work, first, {"fit_linear_s": (report, bad_text)}, repeat=True) == [
        "fit_linear_s: byte-identical report"]
    off = dataclasses.replace(report, aggregate=report.aggregate * 1.001)
    assert "fit_linear_s: aggregate equals objective/n" in failures_of(
        work, first, {"fit_linear_s": (off, text)})


def test_fit_below_the_exact_optimum_is_caught(tmp_path):
    work, first = checked_pass(tmp_path, "fit-additive")
    report, text = first["fit_sq_l2_s"]
    low = dataclasses.replace(report, aggregate=work.oracle.aggregate * 0.5)
    assert "squared_l2 fit is not below the exact optimum" in failures_of(
        work, first, {"fit_sq_l2_s": (low, text)})
    dataset, table = first["gen_s"]
    shifted = dataclasses.replace(dataset, records=dataset.records[1:])
    assert failures_of(work, first, {"gen_s": (shifted, table)}, repeat=True) == [
        "gen: identical output"]


def test_wrong_analysis_results_are_caught(tmp_path):
    work, first = checked_pass(tmp_path, "analysis")
    topo = first["topo_s"]
    bent = dataclasses.replace(topo, coefficient=topo.coefficient + 1e-6)
    assert failures_of(work, first, {"topo_s": bent}) == [
        "topo: coefficient equals scipy spearmanr"]
    bound = first["bound_check_s"]
    violated = dataclasses.replace(bound, violations=((("r0", "r1"), 2.0, 1.0),),
                                   holds=False)
    assert failures_of(work, first, {"bound_check_s": violated}) == [
        "bound_check: holds with zero violations"]


def test_a_raising_call_is_a_failed_operation():
    chk = workload.Checker()

    def boom(span):
        raise RecursionError("too deep")

    times, calib, outputs = workload.run_pass([("x_s", boom)], chk, None)
    assert (times, calib, outputs, chk.attempted) == ({}, {}, {}, 1)
    assert chk.failures == ["x_s: RecursionError: too deep"]


def test_spans_give_self_time_and_unwrap_restores():
    module = types.SimpleNamespace(work=lambda: time.sleep(0.03))
    original = module.work
    tracer = spans.Tracer()
    tracer.wrap(module, "work", "inner")
    with tracer.span("outer"):
        time.sleep(0.02)
        module.work()
    tracer.unwrap_all()
    assert module.work is original
    got = tracer.summary()
    assert got["inner"]["calls"] == got["outer"]["calls"] == 1
    assert got["outer"]["self_s"] == pytest.approx(got["outer"]["s"] - got["inner"]["s"])
    assert got["outer"]["self_s"] >= 0.02 and got["inner"]["s"] >= 0.03
    assert tracer.summary(first=1)["outer"]["calls"] == 0
