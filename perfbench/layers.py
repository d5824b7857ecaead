"""Per-layer spans for the traced pass, recorded from outside the package.

``install`` wraps each layer's functions by rebinding, in every offrado module,
the names that hold them, so a call made through ``from .x import f`` is
traced as well as one made inside x.  Spans nest on one stack; a span's self
time is its duration minus the time its child spans cover.  Only aggregates
are kept: calls, total and self time per span name, calls per (span, parent)
and a few counts read from arguments and results.

A wrapped name that no longer exists is not an error: every metric that needs
it is reported missing, with the reason.
"""

from __future__ import annotations

import sys
import time
from statistics import median

# (module, attribute, span).  Private names are wrapped too because clause
# building and file reading are reachable only through them.
FUNCTIONS = (
    ("propagation", "propagate_masks", "propagation.propagate"),
    ("search", "search_valid", "search.search_valid"),
    ("search", "enumerate_solutions", "search.enumerate"),
    ("search", "brute_force_colorable", "search.brute_force"),
    ("search", "_system", "search.system"),
    ("certificates", "auto_prove", "certificates.auto_prove"),
    ("certificates", "verify_certificate", "certificates.verify"),
    ("certificates", "certificate_from_json", "certificates.parse"),
    ("certificates", "_grid_system", "certificates.grid_system"),
    ("intervals", "m_fold_sumset", "intervals.sumset"),
    ("intervals", "decompose_sum", "intervals.decompose"),
    ("intervals", "verify_coloring", "intervals.verify_coloring"),
    ("serialize", "canonical_json", "serialize.emit"),
    ("cli", "_read_json", "cli.read_json"),
    ("suite", "check_formula_table", "suite.formula_table"),
    ("suite", "check_lower_bounds", "suite.lower_bounds"),
    ("suite", "check_certificates", "suite.certificates"),
    ("suite", "check_grid_necessity", "suite.grid_necessity"),
    ("suite", "check_residue_arithmetic", "suite.residue_arithmetic"),
    ("suite", "check_scaling", "suite.scaling"),
    ("suite", "check_sumset_oracle", "suite.sumset_oracle"),
    ("suite", "check_search_oracle", "suite.search_oracle"),
)
GENERATORS = {"search.enumerate"}
CLASSES = (
    ("equations", "SolutionWitness", "equations.witness"),
    ("propagation", "ClauseSystem", "propagation.index"),
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.parents: dict[str, int] = {}  # "span<parent" -> calls
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        elapsed = time.perf_counter() - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += elapsed
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += elapsed
        span[2] += elapsed - covered
        key = f"{name}<{parent[0] if parent else ''}"
        self.parents[key] = self.parents.get(key, 0) + 1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def parent_name(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "parents": self.parents,
            "counts": self.counts,
            "missing": self.missing,
        }


def _after(tracer: Tracer, span: str, args, result) -> None:
    """Counts read at the boundary where the work happens."""
    if span == "propagation.propagate":
        tracer.count("propagation.forcings", len(result[2]))
        tracer.count("propagation.conflicts", int(result[3] is not None))
    elif span == "propagation.index":
        clauses = len(args[2])
        tracer.count("propagation.indexed_clauses", clauses)
        if tracer.parent_name() == "search.system":
            tracer.count("search.clauses", clauses)


def _wrap_function(tracer: Tracer, span: str, fn):
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _after(tracer, span, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, span: str, fn):
    """Each resumption is one span, so time the consumer spends between items
    is not charged to the generator."""

    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            tracer.enter(span)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return traced


def _wrap_init(tracer: Tracer, span: str, init):
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            init(*args, **kwargs)
        finally:
            tracer.exit()
        _after(tracer, span, args, None)

    return traced


def install() -> Tracer:
    """Wrap every layer function and constructor of the imported package."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.startswith("offrado.") and m]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules.get(f"offrado.{module_name}"), attr, None)
        if original is None:
            tracer.missing[span] = f"offrado.{module_name} has no {attr}"
            continue
        wrap = _wrap_generator if span in GENERATORS else _wrap_function
        traced = wrap(tracer, span, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, traced)
    for module_name, attr, span in CLASSES:
        cls = getattr(sys.modules.get(f"offrado.{module_name}"), attr, None)
        if cls is None:
            tracer.missing[span] = f"offrado.{module_name} has no {attr}"
            continue
        cls.__init__ = _wrap_init(tracer, span, cls.__init__)
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics, computed in the parent from the children's snapshots


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of one pass's children."""
    total = {"spans": {}, "parents": {}, "counts": {}, "missing": {}}
    for snap in snapshots:
        for name, (calls, elapsed, own) in snap["spans"].items():
            span = total["spans"].setdefault(name, [0, 0.0, 0.0])
            span[0] += calls
            span[1] += elapsed
            span[2] += own
        for key in ("parents", "counts"):
            for name, n in snap[key].items():
                total[key][name] = total[key].get(name, 0) + n
        total["missing"].update(snap["missing"])
    return total


def _calls(span):
    return lambda t: t["spans"].get(span, [0, 0.0, 0.0])[0]


def _total(span):
    return lambda t: t["spans"].get(span, [0, 0.0, 0.0])[1]


def _self(span):
    return lambda t: t["spans"].get(span, [0, 0.0, 0.0])[2]


def _under(span, parent):
    return lambda t: t["parents"].get(f"{span}<{parent}", 0)


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _conflict_ratio(t):
    calls = _calls("propagation.propagate")(t)
    return _count("propagation.conflicts")(t) / calls if calls else 0.0


# metric -> (unit, spans it needs, value from a merged snapshot)
TRACED = {
    "equations.witnesses": ("count", ["equations.witness"], _calls("equations.witness")),
    "equations.witness_s": ("s", ["equations.witness"], _total("equations.witness")),
    "search.clause_systems": (
        "count", ["search.system", "propagation.index"], _under("propagation.index", "search.system"),
    ),
    "search.clauses": ("count", ["search.system", "propagation.index"], _count("search.clauses")),
    "search.clause_build_s": ("s", ["search.system"], _total("search.system")),
    "search.enumerate_self_s": ("s", ["search.enumerate"], _self("search.enumerate")),
    "search.dfs_self_s": ("s", ["search.search_valid"], _self("search.search_valid")),
    "search.brute_force_s": ("s", ["search.brute_force"], _total("search.brute_force")),
    "propagation.calls": ("count", ["propagation.propagate"], _calls("propagation.propagate")),
    "propagation.s": ("s", ["propagation.propagate"], _total("propagation.propagate")),
    "propagation.forcings": ("count", ["propagation.propagate"], _count("propagation.forcings")),
    "propagation.conflicts": ("count", ["propagation.propagate"], _count("propagation.conflicts")),
    "propagation.conflict_ratio": ("ratio", ["propagation.propagate"], _conflict_ratio),
    "propagation.index_s": ("s", ["propagation.index"], _total("propagation.index")),
    "propagation.indexed_clauses": (
        "count", ["propagation.index"], _count("propagation.indexed_clauses"),
    ),
    "certificates.grid_systems": (
        "count", ["certificates.grid_system"], _calls("certificates.grid_system"),
    ),
    "certificates.grid_build_s": (
        "s", ["certificates.grid_system"], _total("certificates.grid_system"),
    ),
    "certificates.prove_self_s": ("s", ["certificates.auto_prove"], _self("certificates.auto_prove")),
    "certificates.verify_s": ("s", ["certificates.verify"], _total("certificates.verify")),
    "certificates.verify_calls": ("count", ["certificates.verify"], _calls("certificates.verify")),
    "certificates.parse_s": ("s", ["certificates.parse"], _total("certificates.parse")),
    "cli.read_s": ("s", ["cli.read_json"], _total("cli.read_json")),
    "serialize.emit_s": ("s", ["serialize.emit"], _total("serialize.emit")),
    "intervals.sumset_s": ("s", ["intervals.sumset"], _total("intervals.sumset")),
    "intervals.sumset_calls": ("count", ["intervals.sumset"], _calls("intervals.sumset")),
    "intervals.decompose_s": ("s", ["intervals.decompose"], _total("intervals.decompose")),
    "intervals.verify_coloring_s": (
        "s", ["intervals.verify_coloring"], _total("intervals.verify_coloring"),
    ),
    "suite.formula_table_s": ("s", ["suite.formula_table"], _total("suite.formula_table")),
    "suite.certificates_s": ("s", ["suite.certificates"], _total("suite.certificates")),
    "suite.search_oracle_s": ("s", ["suite.search_oracle"], _total("suite.search_oracle")),
    "suite.sumset_oracle_s": ("s", ["suite.sumset_oracle"], _total("suite.sumset_oracle")),
}
# Counts that must repeat exactly between passes over the same commands.
DETERMINISTIC = (
    "equations.witnesses",
    "search.clause_systems",
    "certificates.grid_systems",
)


def traced_metrics(merged_passes: list[dict]) -> dict:
    """Median over passes of every traced metric, or why it is missing."""
    out = {}
    missing = merged_passes[0]["missing"]
    for name, (unit, needs, value) in TRACED.items():
        gone = [missing[s] for s in needs if s in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            values = [value(t) for t in merged_passes]
            # counts repeat exactly (run.py checks that), so no median is needed
            out[name] = {"value": values[-1] if unit == "count" else median(values), "unit": unit}
    return out


def deterministic_counts(snapshot: dict) -> dict:
    merged = merge([snapshot])
    return {
        name: TRACED[name][2](merged)
        for name in DETERMINISTIC
        if not any(s in merged["missing"] for s in TRACED[name][1])
    }
