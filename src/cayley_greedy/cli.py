"""Command-line front end; every randomized run is reproducible from its seed."""

from __future__ import annotations

import argparse
import json
import sys

from . import fluid, greedy, peeling, stats, trees
from .stats import DEFAULT_SEED


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note_seed(args) -> None:
    if hasattr(args, "seed"):
        print(f"seed: {args.seed:#x}", file=sys.stderr)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def cmd_sample_tree(args) -> int:
    rng = trees.RandomSource(args.seed)
    samplers = {
        "prufer": trees.sample_uniform,
        "pitman": trees.pitman_sample,
        "aldous-broder": trees.aldous_broder_sample,
    }
    sampler = samplers[args.method]
    lines = [
        sampler(args.n, rng.child(i)).to_line() for i in range(args.count)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_enumerate(args) -> int:
    lines = [t.to_line() for t in trees.enumerate_all(args.n)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_single_tree(path: str) -> trees.CayleyTree:
    loaded = trees.read_trees(path)
    if len(loaded) != 1:
        raise ValueError(f"expected exactly one tree in {path}, found {len(loaded)}")
    return loaded[0]


def cmd_peel(args) -> int:
    rng = trees.RandomSource(args.seed)
    if args.fixed_tree:
        tree = _load_single_tree(args.fixed_tree)
        if args.n is not None and args.n != tree.n:
            raise ValueError(f"--n {args.n} does not match the "
                             f"{tree.n}-vertex tree in {args.fixed_tree}")
        if args.alg == "greedy":
            steps, outcome = greedy.greedy_exploration_steps(tree)
            print(f"size={outcome.size} steps={outcome.steps} "
                  f"root_last={outcome.root_last}", file=sys.stderr)
        else:
            rule = _make_rule(args.alg, rng.child(1))
            steps = peeling.peel_fixed_tree(tree, rule)
    else:
        if args.n is None:
            raise ValueError("--n is required for a Markov exploration")
        if args.alg == "greedy":
            steps, outcome = greedy.greedy_markov_peeling(args.n, rng.child(0))
            print(f"size={outcome.size} steps={outcome.steps} "
                  f"root_last={outcome.root_last}", file=sys.stderr)
        else:
            rule = _make_rule(args.alg, rng.child(1))
            steps, final = peeling.peel_markov(args.n, rule, rng.child(0))
            print(f"final tree: {final.to_line()}", file=sys.stderr)
    _emit(peeling.format_steps_csv(steps), args.out)
    return 0


def _make_rule(name: str, rng: trees.RandomSource):
    if name == "unif":
        return peeling.UniformRule(rng)
    if name == "ab":
        return peeling.SmallestLabelRule()
    raise ValueError(f"unknown peeling rule {name!r}")


def _emit_outcomes(rows: list[dict], args) -> None:
    if args.format == "json":
        _emit("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), args.out)
    else:
        _emit(greedy.format_outcomes_csv(rows), args.out)


def cmd_greedy(args) -> int:
    _note_seed(args)
    master = trees.RandomSource(args.seed)
    rows = []
    for i in range(args.replicates):
        out = greedy.greedy_uniform_tree(args.n, master.child(i))
        rows.append({"n": args.n, "replicate": i,
                     "G": out.size, "theta": out.steps, "E": out.root_last})
    _emit_outcomes(rows, args)
    return 0


def cmd_matching(args) -> int:
    _note_seed(args)
    report = stats.tree_sweep_experiment(
        "matching", args.n, args.replicates, args.seed, jobs=args.jobs
    )
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def cmd_max_is(args) -> int:
    _note_seed(args)
    report = stats.tree_sweep_experiment(
        "max-is", args.n, args.replicates, args.seed, jobs=args.jobs
    )
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def cmd_chain(args) -> int:
    _note_seed(args)
    rng = trees.RandomSource(args.seed)
    sizes, steps, root_last = greedy.simulate_status_chain_many(
        args.n, args.replicates, rng
    )
    rows = [
        {"n": args.n, "replicate": i, "G": int(sizes[i]),
         "theta": int(steps[i]), "E": int(root_last[i])}
        for i in range(args.replicates)
    ]
    _emit_outcomes(rows, args)
    return 0


def cmd_exact_law(args) -> int:
    law = greedy.exact_chain_law(args.n)
    _emit(_json(greedy.law_to_json_dict(law)), args.out)
    return 0


def cmd_verify_symmetry(args) -> int:
    if args.exact:
        check = greedy.verify_symmetry_exact(args.n, cross_check=args.cross_check)
        pe = check.root_last_probability
        payload = {
            "n": args.n,
            "mode": "exact",
            "tv": f"{check.tv.numerator}/{check.tv.denominator}",
            "root_last_probability": {
                "fraction": f"{pe.numerator}/{pe.denominator}",
                "float": float(pe),
            },
        }
        _emit(_json(payload), args.out)
        return 0 if check.tv == 0 else 1
    _note_seed(args)
    report = stats.symmetry_experiment_mc(args.n, args.replicates, args.seed)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def cmd_clt(args) -> int:
    _note_seed(args)
    reports = stats.clt_experiment(args.n, args.replicates, args.seed)
    if args.format == "csv":
        _emit(stats.format_reports_csv(reports), args.out)
    else:
        _emit(stats.format_reports_jsonl(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_fluid(args) -> int:
    m = fluid.covariance_matrix()
    var_size, var_first, cov_pair = fluid.clt_constants(m)
    payload = {
        "t_star": _sig15(fluid.t_star()),
        "M": [[_sig15(x) for x in row] for row in m.tolist()],
        "varG": _sig15(var_size),
        "varTheta": _sig15(var_first),
        "covAB": _sig15(cov_pair),
    }
    _emit(_json(payload), args.out)
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for seeds: an integer >= 0, decimal or 0x-prefixed."""
    value = int(text, 0)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Bad flags exit 2 with one line on stderr, like every other bad input."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(p, with_replicates=False, with_jobs=False, with_format=False,
                with_seed=True):
    p.add_argument("--n", type=int, required=True)
    if with_replicates:
        p.add_argument("--replicates", type=positive_int, default=1000)
    if with_jobs:
        p.add_argument("--jobs", type=positive_int, default=1)
    if with_seed:
        p.add_argument("--seed", type=seed_int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    if with_format:
        p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cayley-greedy",
        description="Greedy independent sets on uniform labeled trees: "
        "samplers, exact laws, fluid limits, Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-tree", help="sample trees, one per line")
    _add_common(p)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--method", choices=["prufer", "pitman", "aldous-broder"],
                   default="prufer")
    p.set_defaults(func=cmd_sample_tree)

    p = sub.add_parser("enumerate", help="every tree of size n, one per line")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("peel", help="peeling exploration step trace")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=seed_int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.add_argument("--alg", choices=["unif", "ab", "greedy"], default="unif")
    p.add_argument("--fixed-tree", default=None, metavar="FILE",
                   help="explore this tree instead of running the Markov exploration")
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("greedy", help="per-tree greedy outcomes")
    _add_common(p, with_replicates=True, with_format=True)
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("chain", help="fast status-chain outcomes, no trees")
    _add_common(p, with_replicates=True, with_format=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("exact-law", help="exact outcome law by dynamic programming")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_exact_law)

    p = sub.add_parser("verify-symmetry", help="law(G) vs law((n-G)+E)")
    _add_common(p, with_replicates=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mc", action="store_true")
    p.add_argument("--cross-check", action="store_true",
                   help="also compare the exact law against full enumeration")
    p.set_defaults(func=cmd_verify_symmetry)

    p = sub.add_parser("clt", help="Gaussian-limit verification reports")
    _add_common(p, with_replicates=True, with_format=True)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("matching", help="greedy matching density sweep")
    _add_common(p, with_replicates=True, with_jobs=True)
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("max-is", help="maximum independent set density sweep")
    _add_common(p, with_replicates=True, with_jobs=True)
    p.set_defaults(func=cmd_max_is)

    p = sub.add_parser("fluid", help="fluid-limit constants as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fluid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # bad input (values, missing or unwritable files) exits 2; exit 1 is
    # kept for a verification that ran and failed
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        parser.exit(2, f"{parser.prog}: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
