"""Per-layer metrics of the traced pass, computed from a span summary.

Every workload reports every metric; a layer that a workload never calls
reads 0 there, which is the predicted no-change value for that pairing.
Times are mean self times per call unless the name says otherwise.
"""

from __future__ import annotations

from tracer import SCALAR_DRAWS, Summary

ENUM_LABEL = "enum.n7"
CHAIN_SHAPES = ("wide", "narrow")


def _label_is(label: str):
    return lambda op_label: op_label == label


_in_enum = _label_is(ENUM_LABEL)


def _outside_enum(op_label: str) -> bool:
    return op_label != ENUM_LABEL


def specs(ladder: tuple[int, ...]) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    top = max(ladder)
    out = [
        ("trees.child_us", "us", "lower"),
        ("trees.child_calls", "count", "lower"),
        ("trees.scalar_draw_us", "us", "lower"),
        ("trees.scalar_draws", "count", "lower"),
        ("trees.sample_uniform_ms", "ms", "lower"),
        ("trees.prufer_decode_ms", "ms", "lower"),
        ("trees.cayley_tree_ms", "ms", "lower"),
        ("trees.prufer_decode_us.n7", "us", "lower"),
        ("peeling.peel_markov_us", "us", "lower"),
        ("peeling.first_branch_us", "us", "lower"),
        ("peeling.draws_per_attach", "ratio", "lower"),
        ("greedy.peeling_ms", "ms", "lower"),
        ("greedy.matching_ms", "ms", "lower"),
        ("greedy.max_is_ms", "ms", "lower"),
        ("greedy.markov_peeling_ms", "ms", "lower"),
        ("greedy.markov_draws_per_step", "ratio", "lower"),
        ("greedy.enum_peeling_us.n7", "us", "lower"),
        ("greedy.enumeration_law_s.n7", "s", "lower"),
    ]
    for shape in CHAIN_SHAPES:
        out += [
            (f"greedy.chain_ns_per_replicate_step.{shape}", "ns", "lower"),
            (f"greedy.chain_replicate_steps.{shape}", "count", "lower"),
            (f"greedy.chain_live_lane_frac.{shape}", "ratio", "higher"),
        ]
    out += [(f"greedy.exact_law_s.n{n}", "s", "lower") for n in ladder]
    out += [
        (f"greedy.law_json_ms.n{top}", "ms", "lower"),
        (f"greedy.symmetry_tv_ms.n{top}", "ms", "lower"),
        (f"greedy.exact_law_peak_mb.n{top}", "MB", "lower"),
        ("fluid.covariance_ms", "ms", "lower"),
        ("fluid.discrete_covariance_ms", "ms", "lower"),
        ("stats.ks_ms", "ms", "lower"),
        ("stats.clt_driver_ms", "ms", "lower"),
        ("stats.chi_square_ms", "ms", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return out


def compute(s: Summary, rounds: int, ladder: tuple[int, ...]) -> dict[str, float]:
    """Trace-derived metrics; the workload adds cli.import_s, trace.* and
    the peak-memory metric, which do not come from spans."""
    top = max(ladder)

    def per_call(name: str, scale: float, label=None) -> float:
        return s.mean_self(s.spans(name, label)) * scale

    def notes(spans: list[int]) -> list:
        return [s.tracer.notes[i] for i in spans]

    draws = [i for name in SCALAR_DRAWS for i in s.spans(name)]
    child = s.spans("trees.RandomSource.child")
    explorations = (s.spans("peeling.peel_markov")
                    + s.spans("peeling.first_branch_length"))
    attach_draws = sum(
        len(s.spans(name, parent={"peeling.peel_markov", "peeling.first_branch_length"}))
        for name in SCALAR_DRAWS)
    greedy_markov = s.spans("greedy.greedy_markov_peeling")
    markov_draws = sum(len(s.spans(name, parent={"greedy.greedy_markov_peeling"}))
                       for name in SCALAR_DRAWS)
    m = {
        "trees.child_us": s.mean_self(child) * 1e6,
        "trees.child_calls": len(child) / rounds,
        "trees.scalar_draw_us": s.mean_self(draws) * 1e6,
        "trees.scalar_draws": len(draws) / rounds,
        "trees.sample_uniform_ms": per_call("trees.sample_uniform", 1e3),
        "trees.prufer_decode_ms": per_call("trees.prufer_decode", 1e3, _outside_enum),
        "trees.cayley_tree_ms": per_call("trees.CayleyTree.__init__", 1e3, _outside_enum),
        "trees.prufer_decode_us.n7": per_call("trees.prufer_decode", 1e6, _in_enum),
        "peeling.peel_markov_us": per_call("peeling.peel_markov", 1e6),
        "peeling.first_branch_us": per_call("peeling.first_branch_length", 1e6),
        "peeling.draws_per_attach": _ratio(attach_draws, sum(notes(explorations))),
        "greedy.peeling_ms": per_call("greedy.greedy_peeling", 1e3, _outside_enum),
        "greedy.matching_ms": per_call("greedy.greedy_matching", 1e3),
        "greedy.max_is_ms": per_call("greedy.max_independent_set", 1e3),
        "greedy.markov_peeling_ms": per_call("greedy.greedy_markov_peeling", 1e3),
        "greedy.markov_draws_per_step": _ratio(markov_draws, sum(notes(greedy_markov))),
        "greedy.enum_peeling_us.n7": per_call("greedy.greedy_peeling", 1e6, _in_enum),
        "greedy.enumeration_law_s.n7": per_call("greedy.enumeration_law", 1.0),
    }
    for shape in CHAIN_SHAPES:
        spans = s.spans("greedy.simulate_status_chain_many", _label_is(f"chain.{shape}"))
        steps = sum(note[0] for note in notes(spans))
        padded = sum(note[1] for note in notes(spans))
        m[f"greedy.chain_ns_per_replicate_step.{shape}"] = (
            _ratio(s.total_self(spans), steps) * 1e9)
        m[f"greedy.chain_replicate_steps.{shape}"] = _ratio(steps, len(spans))
        m[f"greedy.chain_live_lane_frac.{shape}"] = _ratio(steps, padded)
    for n in ladder:
        m[f"greedy.exact_law_s.n{n}"] = per_call(
            "greedy.exact_chain_law", 1.0, _label_is(f"law.n{n}"))
    m[f"greedy.law_json_ms.n{top}"] = per_call(
        "greedy.law_to_json_dict", 1e3, _label_is(f"law.n{top}"))
    m[f"greedy.symmetry_tv_ms.n{top}"] = per_call(
        "greedy.total_variation_exact", 1e3, _label_is(f"law.n{top}"))
    m["fluid.covariance_ms"] = per_call("fluid.covariance_matrix", 1e3)
    m["fluid.discrete_covariance_ms"] = per_call("fluid.discrete_step_covariance", 1e3)
    m["stats.ks_ms"] = per_call("stats.ks_gaussian", 1e3)
    m["stats.clt_driver_ms"] = per_call("stats.clt_experiment", 1e3)
    m["stats.chi_square_ms"] = per_call("stats.chi_square_uniform", 1e3)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
