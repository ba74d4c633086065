"""Command-line front end; every randomized run is reproducible from its seed."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Iterable

from . import fluid, greedy, peeling, stats, trees
from .stats import DEFAULT_SEED


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note_seed(seed: int) -> None:
    """The seed on stderr, once the run has its result: bad input leaves one line."""
    print(f"seed: {seed:#x}", file=sys.stderr)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _csv(fields: list[str], rows: list[dict]) -> str:
    """A header of ``fields``, then one line per row; a missing key is empty."""
    lines = [",".join(fields)]
    lines += [",".join(str(row.get(k, "")) for k in fields) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_table(fields: list[str], rows: list[dict], fmt: str, out: str | None) -> None:
    """Rows as CSV with the columns ``fields`` if ``fmt`` is "csv", else as JSON lines."""
    _emit(_csv(fields, rows) if fmt == "csv" else _jsonl(rows), out)


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
    sample = [sampler(args.n, rng.child(i))
              for i in range(trees._size(args.count, name="count"))]
    _emit(trees.format_trees(sample), args.out)
    return 0


def cmd_enumerate(args) -> int:
    _emit(trees.format_trees(trees.enumerate_all(args.n)), args.out)
    return 0


def _load_single_tree(filename: str) -> trees.CayleyTree:
    loaded = trees.read_trees(filename)
    if len(loaded) != 1:
        raise ValueError(f"expected exactly one tree in {filename}, found {len(loaded)}")
    return loaded[0]


def cmd_peel(args) -> int:
    if args.fixed_tree and args.alg != "unif" and args.seed is not None:
        raise ValueError(f"--seed does nothing with --fixed-tree and --alg {args.alg}: "
                         "the exploration draws no random numbers")
    rng = trees.RandomSource(DEFAULT_SEED if args.seed is None else args.seed)
    tree = None
    if args.fixed_tree:
        tree = _load_single_tree(args.fixed_tree)
        if args.n is not None and args.n != tree.n:
            raise ValueError(f"--n {args.n} does not match the "
                             f"{tree.n}-vertex tree in {args.fixed_tree}")
    elif args.n is None:
        raise ValueError("--n is required for a Markov exploration")
    # a Markov run reads child 0 for its parents, and the unif rule child 1
    if args.alg == "greedy":
        steps, outcome = (greedy.greedy_markov_peeling(args.n, rng.child(0)) if tree is None
                          else greedy.greedy_exploration_steps(tree))
        print(f"size={outcome.size} steps={outcome.steps} "
              f"root_last={outcome.root_last}", file=sys.stderr)
    else:
        rule = (peeling.UniformRule(rng.child(1)) if args.alg == "unif"
                else peeling.SmallestLabelRule())
        if tree is None:
            steps, final = peeling.peel_markov(args.n, rule, rng.child(0))
            print(f"final tree: {final.to_line()}", file=sys.stderr)
        else:
            steps = peeling.peel_fixed_tree(tree, rule)
    rows = [{"step": i, "peeled": s.peeled, "parent": s.parent,
             "recolored": int(s.recolored_to_blue)} for i, s in enumerate(steps, start=1)]
    _emit(_csv(["step", "peeled", "parent", "recolored"], rows), args.out)
    return 0


OUTCOME_FIELDS = ["n", "replicate", "G", "theta", "E"]


def _emit_outcomes(outcomes: Iterable[tuple[int, int, int]], args) -> None:
    """One row per (G, theta, E) triple, numbered as replicates from 0."""
    rows = [{"n": args.n, "replicate": i, "G": g, "theta": t, "E": e}
            for i, (g, t, e) in enumerate(outcomes)]
    _emit_table(OUTCOME_FIELDS, rows, args.format, args.out)


def cmd_greedy(args) -> int:
    master = trees.RandomSource(args.seed)
    outcomes = [greedy.greedy_peeling(trees.sample_uniform(args.n, master.child(i)))
                for i in range(trees._size(args.replicates, name="replicates"))]
    _note_seed(args.seed)
    _emit_outcomes([(o.size, o.steps, o.root_last) for o in outcomes], args)
    return 0


def _emit_reports(reports: list[stats.ExperimentReport], out: str | None,
                  fmt: str = "json") -> int:
    """Reports as a table in the format ``fmt``; exit code 1 if any failed."""
    rows = [dataclasses.asdict(r) for r in reports]
    fields = [f.name for f in dataclasses.fields(stats.ExperimentReport)]
    _emit_table(fields, rows, fmt, out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(args) -> int:
    """``matching`` and ``max-is``: the command names the sweep kind."""
    report = stats.tree_sweep_experiment(
        args.command, args.n, args.replicates, args.seed, jobs=args.jobs
    )
    _note_seed(args.seed)
    return _emit_reports([report], args.out)


def cmd_chain(args) -> int:
    rng = trees.RandomSource(args.seed)
    sizes, steps, root_last = greedy.simulate_status_chain_many(
        args.n, args.replicates, rng
    )
    _note_seed(args.seed)
    _emit_outcomes(zip(sizes.tolist(), steps.tolist(), root_last.tolist()), args)
    return 0


def cmd_exact_law(args) -> int:
    law = greedy.exact_chain_law(args.n)
    _emit(_json(greedy.law_to_json_dict(law)), args.out)
    return 0


def cmd_verify_symmetry(args) -> int:
    if args.mc and args.cross_check:
        raise ValueError("--cross-check does nothing with --mc: it compares "
                         "the exact law with enumeration")
    if args.exact:
        for flag in ("seed", "replicates"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does nothing with --exact: "
                                 "the exact law draws no random numbers")
        check = greedy.verify_symmetry_exact(args.n, cross_check=args.cross_check)
        payload = {
            "n": args.n,
            "mode": "exact",
            "tv": f"{check.tv.numerator}/{check.tv.denominator}",
            "root_last_probability": greedy.fraction_to_json(check.root_last_probability),
        }
        _emit(_json(payload), args.out)
        return 0 if check.tv == 0 else 1
    seed = DEFAULT_SEED if args.seed is None else args.seed
    replicates = DEFAULT_REPLICATES if args.replicates is None else args.replicates
    report = stats.symmetry_experiment_mc(args.n, replicates, seed)
    _note_seed(seed)
    return _emit_reports([report], args.out)


def cmd_clt(args) -> int:
    reports = stats.clt_experiment(args.n, args.replicates, args.seed)
    _note_seed(args.seed)
    return _emit_reports(reports, args.out, args.format)


def cmd_fluid(args) -> int:
    m = fluid.covariance_matrix()
    var_size, var_first, cov_pair = fluid.clt_constants()
    payload = {
        "t_star": _sig15(fluid.t_star()),
        "M": [[_sig15(x) for x in row] for row in m.tolist()],
        "varG": _sig15(var_size),
        "varTheta": _sig15(var_first),
        "covAB": _sig15(cov_pair),
    }
    _emit(_json(payload), args.out)
    return 0


#: replicates of a Monte Carlo command without --replicates
DEFAULT_REPLICATES = 1000


def seed_int(text: str) -> int:
    """argparse type for seeds: an integer, decimal or 0x-prefixed.  Counts
    and seeds are checked where they are used, by :func:`trees._size`."""
    return int(text, 0)


class _Parser(argparse.ArgumentParser):
    """Bad flags exit 2 with one line on stderr, like every other bad input."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(p, with_replicates=False, with_jobs=False, with_format=False,
                with_seed=True):
    p.add_argument("--n", type=int, required=True)
    if with_replicates:
        p.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    if with_jobs:
        p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--method", choices=["prufer", "pitman", "aldous-broder"],
                   default="prufer")
    p.set_defaults(func=cmd_sample_tree)

    p = sub.add_parser("enumerate", help="every tree of size n, one per line")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("peel", help="peeling exploration step trace")
    p.add_argument("--n", type=int, default=None)
    # None tells an explicit seed apart, which a fixed-tree ab/greedy run refuses
    p.add_argument("--seed", type=seed_int, default=None)
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
                   help="with --exact, also compare the exact law against full enumeration")
    # None tells an explicit --seed or --replicates apart, which --exact refuses
    p.set_defaults(func=cmd_verify_symmetry, seed=None, replicates=None)

    p = sub.add_parser("clt", help="Gaussian-limit verification reports")
    _add_common(p, with_replicates=True, with_format=True)
    p.set_defaults(func=cmd_clt)

    for name, help_text in (("matching", "greedy matching density sweep"),
                            ("max-is", "maximum independent set density sweep")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, with_replicates=True, with_jobs=True)
        p.set_defaults(func=cmd_sweep)

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
