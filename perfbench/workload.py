"""One workload process of the treerec benchmark.

run.py starts this script in a fresh interpreter with the checkout's ``src``
first on PYTHONPATH::

    python3 perfbench/workload.py PLAN.json T0 [--setup-only]

``T0`` is run.py's ``time.monotonic()`` just before the spawn; that clock
is shared by every process on the machine.  The script imports treerec,
reads the workload's dataset file and takes the set-up time.  With
``--setup-only`` it stops there.  Otherwise it runs one warm-up pass of the
workload's public calls, whose outputs get the full checks, then timed passes
until the plan's seconds are used up; every repeated output must equal the
warm-up one.  With tracing on, untraced and traced passes alternate.  The
result is one JSON line on stdout.

Every timed call is paired with ``calibrate``, a fixed piece of work that
does not use treerec.  How long it takes tracks how fast a shared machine
runs at the moment, so run.py can scale times to one speed.
"""

import sys
import time
from contextlib import contextmanager, nullcontext


def main(argv: list[str]) -> int:
    import json
    from pathlib import Path

    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    t0 = float(argv[1])
    t = time.perf_counter()
    import treerec
    import_s = time.perf_counter() - t
    modules = len(sys.modules)
    expected = Path(plan["src"]).resolve() / "treerec"
    if Path(treerec.__file__).resolve().parent != expected:
        print(f"treerec came from {treerec.__file__}, not {expected}", file=sys.stderr)
        return 2

    from spans import Tracer

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.wrap(treerec.dataio, "parse_derivation", "derivation.parse")
        with tracer.span("dataio.read_dataset"):
            dataset, alphabet = treerec.read_dataset(plan["data"])
        tracer.unwrap_all()
    else:
        dataset, alphabet = treerec.read_dataset(plan["data"])
    setup = {"setup_s": time.monotonic() - t0, "import.s": import_s,
             "import.modules": modules}
    if tracer is not None:
        read = tracer.summary()
        setup["dataio.read_dataset.s"] = read["dataio.read_dataset"]["s"]
        setup["derivation.parse.s"] = read["derivation.parse"]["s"]
    if "--setup-only" in argv[1:]:
        print(json.dumps({"setup": setup}))
        return 0
    result = measure(treerec, plan, dataset, alphabet, tracer)
    result["setup"] = setup
    print(json.dumps(result))
    return 0


def measure(tr, plan, dataset, alphabet, tracer) -> dict:
    import os
    import platform
    import resource
    from statistics import median

    import numpy as np
    import scipy

    def untraced(name):
        return nullcontext()

    sidecar = dict(np.load(plan["sidecar"]))
    work = WORKLOADS[plan["workload"]](tr, plan, dataset, alphabet, sidecar)
    chk = Checker()
    with work.warm_up():
        _, _, first = run_pass(work.calls, chk, untraced)
    # A check phase that raises is one more failed operation.
    chk.call("warm-up checks", work.check_first, chk, first)

    samples = {name: [] for name, _ in work.calls}
    calibs = {name: [] for name, _ in work.calls}
    traced_passes, untraced_passes, layers = [], [], []
    start = time.perf_counter()
    traced = False
    while True:
        # With tracing on, traced and untraced passes alternate, so both see
        # the same machine and the overhead is their difference.
        traced = tracer is not None and not traced
        if traced:
            for module, attr, name in TRACED_ATTRS:
                tracer.wrap(getattr(tr, module), attr, name)
            begin = len(tracer)
            times, _, outputs = run_pass(work.calls, chk, tracer.span)
            tracer.unwrap_all()
            traced_passes.append(sum(times.values()))
            reports = [outputs[n][0] for n in work.configs if n in outputs]
            layers.append(layer_metrics(tracer.summary(begin), reports))
        else:
            times, calib, outputs = run_pass(work.calls, chk, untraced)
            untraced_passes.append(sum(times.values()))
            for name, dt in times.items():
                samples[name].append(dt)
                calibs[name].append(calib[name])
        chk.call("repeat checks", work.check_repeat, chk, first, outputs)
        if time.perf_counter() - start >= plan["seconds"] and (tracer is None or not traced):
            break
    result = {
        "samples": samples,
        "calibs": calibs,
        "figures": work.figures(first),
        "attempted": chk.attempted,
        "failures": chk.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.save(plan["trace_out"])
        result["layers"] = {k: median([row[k] for row in layers]) for k in layers[0]}
        result["layers"]["trace.overhead.s"] = (median(traced_passes)
                                                - median(untraced_passes))
        result["spans"] = len(tracer)
    return result


# The module attributes through which one layer calls another, and the span
# each call records.  Callers look these names up at call time, so replacing
# the attribute traces the call without touching the library.
TRACED_ATTRS = (
    ("solver", "tre_datum", "solver.eval"),
    ("analysis", "tre_datum", "analysis.eval"),
    ("analysis", "pairwise_tree_edit_distances", "derivation.ted"),
    ("analysis", "spearman", "analysis.spearman"),
    ("analysis", "distance", "space.distance"),
    ("datagen", "eval_compositional", "datagen.eval"),
)


def layer_metrics(summary: dict, reports: list) -> dict:
    """Per-layer figures of one traced pass, given its fit reports."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    steps = sum(r.steps_run for r in reports)
    fit_self = get("solver.fit", "self_s")
    return {
        "dataio.render.s": get("dataio.render", "s"),
        "solver.fit.self.s": fit_self,
        "solver.steps": steps,
        "solver.step.ms": 1000.0 * fit_self / steps if steps else 0.0,
        "solver.eval.s": get("solver.eval", "s") + get("analysis.eval", "s"),
        "solver.eval.calls": get("solver.eval", "calls") + get("analysis.eval", "calls"),
        "solver.rescues": sum(1 for r in reports for msg in r.diagnostics
                              if "re-initialized" in msg),
        "datagen.eval.s": get("datagen.eval", "s"),
        "derivation.ted.s": get("derivation.ted", "s"),
        "space.distance.calls": get("space.distance", "calls"),
        "analysis.topo.self.s": get("analysis.topo", "self_s"),
        "analysis.spearman.s": get("analysis.spearman", "s"),
        "analysis.bound_check.self.s": get("analysis.bound_check", "self_s"),
    }


class Checker:
    """Counts operations: every timed call and every check is one, and a
    call that raises or a check that fails is a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def call(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # a library failure is a failed operation
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            return None


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, dict and numpy work.  The
    cyclic garbage collector is off meanwhile, so the size of the heap the
    workload left behind does not change the time."""
    import gc

    import numpy as np

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(30000):
            table[i % 8191] = table.get((i * 7) % 8191, 0) + i
        x = base = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
        mix = 0.5 * np.eye(4)
        for _ in range(3000):
            x = mix @ x + base
        np.abs(np.sin(np.arange(20000.0))).sum()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_pass(calls, chk: Checker, span):
    """Time each call once, with the mean of the calibrations just before and
    just after it.  A call that raised has no time and no output."""
    times, calib, outputs = {}, {}, {}
    before = calibrate()
    for name, fn in calls:
        t = time.perf_counter()
        out = chk.call(name, fn, span)
        dt = time.perf_counter() - t
        after = calibrate()
        if out is not None:
            times[name] = dt
            calib[name] = (before + after) / 2
            outputs[name] = out
        before = after
    return times, calib, outputs


# -- workloads -----------------------------------------------------------------


class FitWork:
    """Shared by the fit workloads: one ``fit`` plus its rendered report per
    call, with the report checks."""

    def __init__(self, tr, plan, dataset, alphabet, sidecar):
        self.tr, self.plan, self.dataset, self.alphabet = tr, plan, dataset, alphabet
        self.sidecar = sidecar
        self.configs = {}
        self.calls = []

    def warm_up(self):
        return nullcontext()

    def add_fit(self, name: str, config) -> None:
        tr, dataset, alphabet = self.tr, self.dataset, self.alphabet

        def call(span):
            with span("solver.fit"):
                report = tr.fit(dataset, config)
            with span("dataio.render"):
                text = tr.dataio.render_report(
                    tr.report_to_dict(report, config, dataset.shape, alphabet))
            return report, text

        self.configs[name] = config
        self.calls.append((name, call))

    def check_first(self, chk: Checker, first: dict) -> None:
        import json
        import math

        n = len(self.dataset)
        ids = [r.id for r in self.dataset.records]
        for name, config in self.configs.items():
            if name not in first:
                continue
            report, text = first[name]
            doc = json.loads(text)
            chk.check(f"{name}: aggregate equals objective/n", math.isclose(
                report.aggregate,
                self.tr.objective(report.table, config, self.dataset) / n,
                rel_tol=1e-9))
            chk.check(f"{name}: one finite error per record",
                      list(report.per_datum) == ids
                      and all(math.isfinite(v) for v in report.per_datum.values()))
            chk.check(f"{name}: rendered report matches the fit",
                      doc["aggregate_tre"] == report.aggregate
                      and doc["per_datum_tre"] == report.per_datum)
            chk.check(f"{name}: ran the configured steps",
                      report.steps_run == config.steps)

    def check_repeat(self, chk: Checker, first: dict, outputs: dict) -> None:
        for name in self.configs:
            if name in outputs and name in first:
                chk.check(f"{name}: byte-identical report",
                          outputs[name][1] == first[name][1])


class FitLinear(FitWork):
    def __init__(self, *args):
        super().__init__(*args)
        tr = self.tr
        self.add_fit("fit_linear_s", tr.FitConfig(
            distance=tr.DistanceSpec("squared_l2"),
            composition=tr.LinearComposition(), learn_composition=True,
            steps=self.plan["spec"]["steps"], restarts=1, convergence_tol=0.0))

    def figures(self, first: dict) -> dict:
        if "fit_linear_s" not in first:
            return {}
        return {"tre.linear": first["fit_linear_s"][0].aggregate}


class FitAdditive(FitWork):
    def __init__(self, *args):
        super().__init__(*args)
        tr, spec = self.tr, self.plan["spec"]
        for kind, name in (("squared_l2", "fit_sq_l2_s"), ("l1", "fit_l1_s"),
                           ("cosine", "fit_cosine_s")):
            self.add_fit(name, tr.FitConfig(distance=tr.DistanceSpec(kind),
                                            steps=spec["steps"], convergence_tol=0.0))
        gen_spec = tr.GenSpec(
            num_primitives=spec["primitives"], shape=tr.VectorShape(spec["shape"][0]),
            depth_range=tuple(spec["depth"]), num_records=spec["records"],
            noise_sigma=spec["noise"], seed=self.plan["seed"])

        def gen(span):
            with span("datagen.generate"):
                return tr.generate_compositional(gen_spec)

        self.gen_spec = gen_spec
        self.calls.append(("gen_s", gen))
        self.oracle = None

    def _gen_digest(self, out) -> str:
        import hashlib

        h = hashlib.sha256()
        dataset, table = out
        for rec in dataset.records:
            h.update(rec.id.encode())
            h.update(self.tr.format_derivation(rec.derivation).encode())
            h.update(rec.representation.tobytes())
        for sym, value in table.entries.items():
            h.update(sym.name.encode())
            h.update(value.tobytes())
        return h.hexdigest()

    def check_first(self, chk: Checker, first: dict) -> None:
        import math

        import numpy as np

        super().check_first(chk, first)
        self.oracle = chk.call("closed_form_fit", self.tr.closed_form_fit, self.dataset)
        if self.oracle is not None:
            counts = self.sidecar["counts"]
            targets = self.sidecar["targets"]
            solution, *_ = np.linalg.lstsq(counts, targets, rcond=None)
            resid = counts @ solution - targets
            lstsq_tre = math.fsum((resid * resid).sum(axis=1)) / len(targets)
            chk.check("closed_form_fit agrees with numpy lstsq",
                      math.isclose(self.oracle.aggregate, lstsq_tre, rel_tol=1e-9))
            if "fit_sq_l2_s" in first:
                adam = first["fit_sq_l2_s"][0].aggregate
                chk.check("squared_l2 fit is not below the exact optimum",
                          adam >= self.oracle.aggregate * (1 - 1e-12))
        if "gen_s" in first:
            dataset, table = first["gen_s"]
            spec = self.gen_spec
            chk.check("gen: record count", len(dataset) == spec.num_records)
            worst = 0.0
            for rec in dataset.records:
                clean = sum(table.entries[leaf] for leaf in _leaves(self.tr, rec.derivation))
                worst = max(worst, float(np.abs(rec.representation - clean).max()))
            chk.check("gen: values are the table sums plus bounded noise",
                      worst <= 8.0 * spec.noise_sigma)
            self.gen_first = self._gen_digest(first["gen_s"])

    def check_repeat(self, chk: Checker, first: dict, outputs: dict) -> None:
        super().check_repeat(chk, first, outputs)
        if "gen_s" in outputs and "gen_s" in first:
            chk.check("gen: identical output", self._gen_digest(outputs["gen_s"]) == self.gen_first)

    def figures(self, first: dict) -> dict:
        if self.oracle is None or "fit_sq_l2_s" not in first:
            return {}
        exact = self.oracle.aggregate
        return {"tre_excess.sq_l2": (first["fit_sq_l2_s"][0].aggregate - exact) / exact}


def _leaves(tr, derivation):
    stack = [derivation]
    while stack:
        t = stack.pop()
        if isinstance(t, tr.Leaf):
            yield t.symbol
        else:
            stack.append(t.left)
            stack.append(t.right)


class Analysis:
    """Topographic similarity and the bound check under l1."""

    TED_SAMPLE = 100
    configs: dict = {}

    def __init__(self, tr, plan, dataset, alphabet, sidecar):
        self.tr, self.plan, self.dataset, self.sidecar = tr, plan, dataset, sidecar
        self.table = tr.PrimitiveTable({tr.Symbol(f"p{i}"): row
                                        for i, row in enumerate(sidecar["table"])})
        l1 = tr.DistanceSpec("l1")

        def topo(span):
            with span("analysis.topo"):
                return tr.topographic_similarity(dataset, l1, rank_based=True)

        def bound(span):
            with span("analysis.bound_check"):
                return tr.bound_check(dataset, self.table, tr.AdditiveComposition(), l1)

        self.calls = [("topo_s", topo), ("bound_check_s", bound)]
        self.teds = []

    @contextmanager
    def warm_up(self):
        """Keep the TED matrices that the warm-up calls compute, for checking."""
        analysis = self.tr.analysis
        original = analysis.pairwise_tree_edit_distances

        def keep(trees):
            self.teds.append(original(trees))
            return self.teds[-1]

        analysis.pairwise_tree_edit_distances = keep
        try:
            yield
        finally:
            analysis.pairwise_tree_edit_distances = original

    def check_first(self, chk: Checker, first: dict) -> None:
        import math

        import numpy as np
        from scipy import stats

        tr = self.tr
        targets = self.sidecar["targets"]
        derivations = [r.derivation for r in self.dataset.records]
        ted = None
        if chk.check("both calls used one TED matrix",
                     len(self.teds) == len(first) and self.teds[1:] == self.teds[:-1]):
            ted = np.asarray(self.teds[0], dtype=np.float64)
            rng = np.random.default_rng(self.plan["seed"])
            n = len(derivations)
            for i, j in rng.integers(n, size=(self.TED_SAMPLE, 2)):
                chk.check(f"TED[{i}][{j}] equals tree_edit_distance",
                          ted[i, j] == tr.tree_edit_distance(derivations[i], derivations[j]))
        if "topo_s" in first and ted is not None:
            topo = first["topo_s"]
            # Row by row, in upper-triangle order, so the check adds little
            # to the process's peak memory.
            iu = np.triu_indices(len(targets), 1)
            rep = np.concatenate([np.abs(targets[i + 1:] - targets[i]).sum(axis=1)
                                  for i in range(len(targets))])
            expected = stats.spearmanr(rep, ted[iu]).statistic
            chk.check("topo: coefficient equals scipy spearmanr",
                      abs(topo.coefficient - expected) <= 1e-10)
            chk.check("topo: pair count", topo.n == len(iu[0]))
        if "bound_check_s" in first:
            report = first["bound_check_s"]
            chk.check("bound_check: holds with zero violations",
                      report.holds and not report.violations)
            eps = float(np.abs(targets - self.sidecar["counts"] @ self.sidecar["table"])
                        .sum(axis=1).max())
            chk.check("bound_check: epsilon equals the worst l1 residual",
                      math.isclose(report.epsilon, eps, rel_tol=1e-9))

    def check_repeat(self, chk: Checker, first: dict, outputs: dict) -> None:
        for name in ("topo_s", "bound_check_s"):
            if name in outputs and name in first:
                chk.check(f"{name}: identical result", outputs[name] == first[name])

    def figures(self, first: dict) -> dict:
        if "bound_check_s" not in first:
            return {}
        return {"bound_check.epsilon": first["bound_check_s"].epsilon}


WORKLOADS = {"fit-linear": FitLinear, "fit-additive": FitAdditive, "analysis": Analysis}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
