"""Benchmark runner for treerec.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-additive --seed 1 --seconds 25 --trace 0

It makes the workload's inputs from the seed, writes them under
``perfbench/out/``, then starts fresh interpreters one at a time with the
checkout's ``src`` on PYTHONPATH and BLAS/OpenMP pinned to one thread: a few
set-up probes, then the measuring process (``workload.py``).  It prints a
table of every figure by name and unit, and as its last line one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in BENCHMARK.json.  Without ``src/treerec`` it exits
with code 2 before measuring anything.  See perfbench/README.md for the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import input_properties, make_inputs, write_inputs  # noqa: E402

WORKLOADS = {
    "fit-linear": {"records": 500, "primitives": 8, "depth": [1, 4], "noise": 0.1,
                   "shape": [4, 16], "composition": "linear", "steps": 100},
    "fit-additive": {"records": 10000, "primitives": 8, "depth": [1, 4], "noise": 0.1,
                     "shape": [16], "composition": "additive", "steps": 500},
    "analysis": {"records": 400, "primitives": 16, "depth": [1, 4], "noise": 0.1,
                 "shape": [16], "composition": "additive", "unit_ball": True},
}
# Small sizes for the benchmark's own tests.
TINY = {"fit-linear": {"records": 40, "steps": 5},
        "fit-additive": {"records": 60, "steps": 20},
        "analysis": {"records": 30}}

# Each workload's deterministic TRE figure, reported as the ``tre`` metric.
FIGURE = {"fit-linear": "tre.linear", "fit-additive": "tre_excess.sq_l2",
          "analysis": "bound_check.epsilon"}

SETUP_PROBES = 3
CALIB_REF_S = 0.015
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(plan_path: Path, env: dict, deadline: float, *extra: str) -> dict:
    """Run one workload interpreter to completion; return its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), str(plan_path), repr(t0), *extra],
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if it lies
    above the median."""
    n = len(values)
    if n < 20:
        return "tail n/a"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; return the result line and the table rows."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "treerec" / "__init__.py").is_file():
        raise FileNotFoundError(f"no treerec source under {root / 'src'}")
    spec = dict(WORKLOADS[workload], **(TINY[workload] if tiny else {}))
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{workload}-s{seed}-t{int(trace)}"
    inputs = make_inputs(spec, seed)
    props = input_properties(inputs["trees"])
    data, sidecar = stem.with_suffix(".jsonl"), stem.with_suffix(".npz")
    write_inputs(inputs, data, sidecar)
    plan = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "spec": spec, "src": str(root / "src"), "data": str(data),
            "sidecar": str(sidecar), "trace_out": str(stem) + "-spans.npz"}
    plan_path = stem.with_suffix(".plan.json")
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    env = child_env(root)
    probes = [spawn(plan_path, env, deadline, "--setup-only")["setup"]
              for _ in range(1 if tiny else SETUP_PROBES)]
    result = spawn(plan_path, env, deadline)
    setups = probes + [result["setup"]]
    # Wall seconds scaled to the speed at which one calibration takes
    # CALIB_REF_S, so that the machine's drift between runs cancels.
    scaled = {name: [t * CALIB_REF_S / c for t, c in zip(times, result["calibs"][name])]
              for name, times in result["samples"].items() if times}
    failures = result["failures"]
    figure = result["figures"].get(FIGURE[workload])
    if figure is None:
        failures.append(f"{FIGURE[workload]} was not computed")
        figure = 0.0
    failed = len(failures)

    rows = [(name, "s", f"median {statistics.median(times):.4f}  {tail(times)}  "
             f"n={len(times)}  (wall median {statistics.median(result['samples'][name]):.4f})")
            for name, times in scaled.items()]
    calibs = [c for cs in result["calibs"].values() for c in cs]
    if calibs:
        rows.append(("calib_ms", "ms", f"median {1000 * statistics.median(calibs):.4f}  "
                     f"(reference {1000 * CALIB_REF_S:g})"))
    rows.append((FIGURE[workload], "tre", f"{figure:.6g}"))
    if trace:
        metrics = {k: statistics.median(s[k] for s in setups)
                   for k in ("import.s", "import.modules", "dataio.read_dataset.s",
                             "derivation.parse.s")}
        metrics.update(result["layers"])
        metrics.update(props)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "pass_s": sum(statistics.median(times) for times in scaled.values()),
            "peak_rss_mb": result["peak_rss_mb"],
            "tre": figure,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "tre": "tre"}
        rows += [(k, layer_unit(k), str(v)) for k, v in props.items()]
    rows += [(k, units[k], f"{v:.6g}") for k, v in metrics.items()]
    env_info = result["env"]
    header = (f"treerec benchmark: workload={workload} seed={seed} seconds={seconds} "
              f"trace={int(trace)} setups={len(setups)} took {time.monotonic() - start:.1f}s\n"
              f"nproc={env_info['nproc']} affinity={env_info['affinity']} "
              f"threads: {' '.join(f'{v}={env[v]}' for v in THREAD_VARS)}\n"
              f"python={env_info['python']} "
              f"numpy={env_info['numpy']} scipy={env_info['scipy']}")
    line = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (stem.with_suffix(".result.json")).write_text(
        json.dumps({"plan": plan, "child": result, "probes": probes, "line": line}),
        encoding="utf-8")
    return {"line": line, "rows": rows, "header": header, "failures": failures}


def layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    return "ratio" if name == "input.subtree_share" else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(outcome["header"])
    for name, unit, text in outcome["rows"]:
        print(f"  {name:<30} {unit:<6} {text}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps(outcome["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
