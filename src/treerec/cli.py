"""Command-line interface.

Subcommands: ``fit`` (estimate a compositional approximation and write a
report), ``editdist`` (tree edit distance between two derivations), ``topo``
(topographic similarity of a dataset), ``gen`` (synthetic datasets and the
fixture languages), ``gradcheck`` (analytic vs numeric gradient check).
``fit`` and ``gradcheck`` share ``--distance``, ``--composition`` and
``--seed``; under ``--composition linear`` both learn the weights.

Exit codes: 0 success, 1 input parse error (reported with a line number for
dataset files), 2 configuration error, 3 optimizer divergence.  All commands
are deterministic given their flags; seeds are echoed into reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import topographic_similarity
from .dataio import (
    DatasetFormatError,
    read_dataset,
    render_report,
    report_to_dict,
    write_dataset,
    write_report,
)
from .datagen import GenSpec, fig5_alphabets, fig5_languages, generate_compositional, generate_random
from .derivation import DerivationSyntaxError, parse_derivation, tree_edit_distance
from .solver import DivergenceError, FitConfig, fit, gradient_check
from .space import (
    DISTANCE_KINDS,
    AdditiveComposition,
    CodeShape,
    DistanceSpec,
    LinearComposition,
    VectorShape,
    _real,
)


def _fit_config(args, **settings) -> FitConfig:
    """The ``FitConfig`` of ``fit`` and ``gradcheck``; linear composition
    learns its weights."""
    comp = LinearComposition() if args.composition == "linear" else AdditiveComposition()
    return FitConfig(distance=DistanceSpec(args.distance), composition=comp,
                     seed=args.seed, **settings)


def cmd_fit(args) -> int:
    dataset, alphabet = read_dataset(args.dataset)
    config = _fit_config(args, steps=args.steps, learning_rate=args.lr,
                         convergence_tol=args.tol, restarts=args.restarts)
    report = fit(dataset, config)
    payload = report_to_dict(report, config, dataset.shape, alphabet,
                             dataset=str(args.dataset))
    if args.out:
        write_report(args.out, payload)
    else:
        sys.stdout.write(render_report(payload))
    return 0


def cmd_editdist(args) -> int:
    d1 = parse_derivation(args.derivation1)
    d2 = parse_derivation(args.derivation2)
    print(tree_edit_distance(d1, d2))
    return 0


def cmd_topo(args) -> int:
    dataset, _ = read_dataset(args.dataset)
    result = topographic_similarity(dataset, DistanceSpec(args.distance),
                                    rank_based=args.rank)
    print(json.dumps({
        "coefficient": result.coefficient,
        "p_value": result.p_value,
        "n_pairs": result.n,
        "rank_based": args.rank,
        "distance": args.distance,
    }, indent=2))
    return 0


def _gen_shape(args):
    if args.length is not None or args.vocab is not None:
        if args.length is None or args.vocab is None:
            raise ValueError("--length and --vocab must be given together")
        if args.dim is not None:
            raise ValueError("give either --dim or --length/--vocab, not both")
        return CodeShape(args.length, args.vocab)
    return VectorShape(args.dim if args.dim is not None else 16)


def cmd_gen(args) -> int:
    if args.kind == "fig5":
        lang_a, lang_b = fig5_languages()
        alpha_a, alpha_b = fig5_alphabets()
        stem = args.out[:-6] if args.out.endswith(".jsonl") else args.out
        path_a, path_b = f"{stem}_A.jsonl", f"{stem}_B.jsonl"
        write_dataset(path_a, lang_a, alpha_a)
        write_dataset(path_b, lang_b, alpha_b)
        print(path_a)
        print(path_b)
        return 0
    spec = GenSpec(
        num_primitives=args.primitives,
        shape=_gen_shape(args),
        depth_range=(args.depth_min, args.depth_max),
        num_records=args.records,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    if args.kind == "compositional":
        dataset, _ = generate_compositional(spec)
    else:
        dataset = generate_random(spec)
    write_dataset(args.out, dataset)
    print(args.out)
    return 0


def cmd_gradcheck(args) -> int:
    threshold = _real("--threshold", args.threshold, positive=True)
    spec = GenSpec(num_primitives=4, shape=VectorShape(5), depth_range=(1, 3),
                   num_records=6, seed=args.seed)
    dataset = generate_random(spec)
    worst = gradient_check(dataset, _fit_config(args), trials=args.trials)
    print(f"{worst:.3e}")
    return 0 if worst < threshold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerec",
        description="Measure how compositional a set of representations is by "
                    "fitting an explicitly compositional approximation to them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--distance", choices=DISTANCE_KINDS, default="squared_l2")
    fitting.add_argument("--composition", choices=("additive", "linear"),
                         default="additive",
                         help="linear learns its weights jointly with the primitives")
    fitting.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit", parents=[fitting], help="fit a compositional "
                           "approximation and report reconstruction errors")
    p_fit.add_argument("dataset")
    p_fit.add_argument("--lr", type=float, default=0.01)
    p_fit.add_argument("--steps", type=int, default=1000)
    p_fit.add_argument("--tol", type=float, default=1e-8,
                       help="early-stop threshold on relative objective "
                            "improvement over 50 steps")
    p_fit.add_argument("--restarts", type=int, default=None)
    p_fit.add_argument("--out", default=None, help="report path (default: stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_ed = sub.add_parser("editdist", help="tree edit distance between two "
                                           "derivation strings")
    p_ed.add_argument("derivation1")
    p_ed.add_argument("derivation2")
    p_ed.set_defaults(func=cmd_editdist)

    p_topo = sub.add_parser("topo", help="correlation between representation "
                                         "and derivation distances")
    p_topo.add_argument("dataset")
    p_topo.add_argument("--distance", choices=DISTANCE_KINDS, default="squared_l2")
    p_topo.add_argument("--rank", action="store_true",
                        help="Spearman instead of Pearson")
    p_topo.set_defaults(func=cmd_topo)

    p_gen = sub.add_parser("gen", help="write synthetic or fixture datasets")
    p_gen.add_argument("--kind", choices=("compositional", "random", "fig5"),
                       required=True)
    p_gen.add_argument("--out", required=True,
                       help="output path; for --kind fig5 a stem producing "
                            "<out>_A.jsonl and <out>_B.jsonl")
    p_gen.add_argument("--primitives", type=int, default=8)
    p_gen.add_argument("--dim", type=int, default=None)
    p_gen.add_argument("--length", type=int, default=None)
    p_gen.add_argument("--vocab", type=int, default=None)
    p_gen.add_argument("--depth-min", type=int, default=1)
    p_gen.add_argument("--depth-max", type=int, default=4)
    p_gen.add_argument("--records", type=int, default=60)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_gc = sub.add_parser("gradcheck", parents=[fitting], help="max relative error of "
                          "analytic gradients vs finite differences")
    p_gc.add_argument("--trials", type=int, default=100)
    p_gc.add_argument("--threshold", type=float, default=1e-4)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return (3 if isinstance(e, DivergenceError) else
                1 if isinstance(e, (DatasetFormatError, DerivationSyntaxError)) else 2)


if __name__ == "__main__":
    sys.exit(main())
