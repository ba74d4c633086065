"""Span tracer for the traced pass, installed from the benchmark's own files.

Wrappers go on the library's public functions and ``RandomSource`` methods
at their module attributes (and every ``cayley_greedy`` module that imported
the same object), so calls that the experiment functions make internally
are seen too.
Spans live in flat arrays in memory and are written out after the run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans (name, start, end, parent, op id) in column arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_labels: list[str] = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, label: str) -> None:
        """Start a new operation; later spans carry its id."""
        self._op = len(self.op_labels)
        self.op_labels.append(label)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(args, kwargs, result)``
        may return a note kept for the span."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                self.notes[i] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_csv(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op,op_label\n")
            for i in range(len(self.start)):
                op = self.op[i]
                label = self.op_labels[op] if op >= 0 else ""
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{op},{label}\n")

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Self time per span, and selections over spans by name and op label."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        count = len(tracer.start)
        child_time = [0.0] * count
        self.duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
        for i in range(count):
            p = tracer.parent[i]
            if p >= 0:
                child_time[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i in range(count):
            self.by_name[tracer.names[tracer.name[i]]].append(i)

    def label(self, i: int) -> str:
        op = self.tracer.op[i]
        return self.tracer.op_labels[op] if op >= 0 else ""

    def spans(self, name: str, label=None, parent=None) -> list[int]:
        """Spans called ``name``; ``label`` filters by op label (a predicate
        on the label) and ``parent`` by the name of the parent span."""
        t = self.tracer
        out = self.by_name.get(name, [])
        if label is not None:
            out = [i for i in out if label(self.label(i))]
        if parent is not None:
            out = [i for i in out if t.parent[i] >= 0
                   and t.names[t.name[t.parent[i]]] in parent]
        return out

    def mean_self(self, spans: list[int]) -> float:
        return sum(self.self_time[i] for i in spans) / len(spans) if spans else 0.0

    def total_self(self, spans: list[int]) -> float:
        return sum(self.self_time[i] for i in spans)

    def top_level_time(self) -> float:
        t = self.tracer
        return sum(self.duration[i] for i in range(len(t.start)) if t.parent[i] < 0)


# --------------------------------------------------------------------------
# Wrapper installation
# --------------------------------------------------------------------------

def _chain_note(args, kwargs, result):
    """(sum of theta, sum over blocks of width * max theta) from the outputs."""
    from cayley_greedy import greedy

    block = kwargs.get("block", args[3] if len(args) > 3 else greedy.CHAIN_BLOCK)
    steps = result[1]
    padded = 0
    for start in range(0, len(steps), block):
        chunk = steps[start:start + block]
        padded += len(chunk) * int(chunk.max())
    return int(steps.sum()), padded


#: (module, attribute, observer) for every traced public function
FUNCTIONS = [
    ("trees", "sample_uniform", None),
    ("trees", "prufer_decode", None),
    ("peeling", "peel_markov", lambda a, k, r: len(r[0])),
    ("peeling", "first_branch_length", lambda a, k, r: r),
    ("greedy", "greedy_peeling", None),
    ("greedy", "greedy_matching", None),
    ("greedy", "max_independent_set", None),
    ("greedy", "greedy_markov_peeling", lambda a, k, r: r[1].steps),
    ("greedy", "simulate_status_chain_many", _chain_note),
    ("greedy", "exact_chain_law", None),
    ("greedy", "enumeration_law", None),
    ("greedy", "law_to_json_dict", None),
    ("greedy", "total_variation_exact", None),
    ("fluid", "covariance_matrix", None),
    ("fluid", "discrete_step_covariance", None),
    ("stats", "clt_experiment", None),
    ("stats", "ks_gaussian", None),
    ("stats", "chi_square_uniform", None),
]

#: (module, class, method) for every traced method
METHODS = [
    ("trees", "RandomSource", "child"),
    ("trees", "RandomSource", "uniform"),
    ("trees", "RandomSource", "integer"),
    ("trees", "CayleyTree", "__init__"),
    ("peeling", "UniformRule", "select"),
    ("peeling", "SmallestLabelRule", "select"),
]

SCALAR_DRAWS = ("trees.RandomSource.uniform", "trees.RandomSource.integer")


def install(tracer: Tracer):
    """Install the wrappers; returns (restore callable, names not found)."""
    modules = [m for name, m in sys.modules.items()
               if name == "cayley_greedy" or name.startswith("cayley_greedy.")]
    patched: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for mod_name, attr, observe in FUNCTIONS:
        home = sys.modules.get(f"cayley_greedy.{mod_name}")
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original, observe)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(f"cayley_greedy.{mod_name}"), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            missing.append(f"{mod_name}.{cls_name}.{attr}")
            continue
        patched.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(f"{mod_name}.{cls_name}.{attr}", original))

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore, missing
