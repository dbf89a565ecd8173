"""Span tracing of udgraph's module boundaries, installed from outside the package.

`Tracer.install` patches, in every udgraph module's namespace, each function
the module imported from another udgraph module (for example
`udgraph.census.solve_faithful` or `udgraph.embed.verify`), the constructors
of the value types whose construction does real work (`Graph`, `Embedding`,
`HSystem`), the public methods of `Graph` (every module asks the graph for
edges, neighbours and degrees), and the entry points the benchmark calls.
Every call then becomes a span with a name, start, end and parent, kept in
memory; `uninstall` restores the originals. Nothing inside `src/` is edited.

A layer's self time is the time its spans cover minus the part their child
spans cover, so the eight module self times plus the benchmark's own time
(the timed wall minus the root spans) add up to the traced wall exactly.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time

MODULES = ("cli", "census", "solver", "embed", "audit", "verify", "geometry", "graphs")

# value types whose constructors validate or normalise their input
CONSTRUCTORS = ("Graph", "Embedding", "HSystem")
GRAPH_METHODS = ("has_edge", "neighbors", "degree", "degrees", "adjacency",
                 "sorted_edges", "complement", "to_dict")
# the functions the benchmark's own workload code calls
ENTRY_POINTS = (
    ("cli", "main"),
    ("census", "count_faithful"),
    ("embed", "embed_bipartite_faithful"),
    ("audit", "faithful_dim_audit"),
)


class Span:
    __slots__ = ("name", "module", "parent", "start", "end", "raised", "info")

    def __init__(self, name, module, parent, start):
        self.name = name
        self.module = module
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.start = start
        self.end = start
        self.raised = False
        self.info = None


def _graph_arg(args, kwargs):
    return args[0] if args else kwargs["g"]


def _solve_info(args, kwargs, result):
    return result.restarts_used, result.status == "FOUND"


# per-span facts the ratios need, read from arguments and results
ANNOTATE = {
    "solver.solve_faithful": _solve_info,
    "solver.solve_distance": _solve_info,
    "verify.verify": lambda a, k, r: (_graph_arg(a, k).n, r.passed),
    "census.count_faithful": lambda a, k, r: 1 << math.comb(a[0] if a else k["n"], 2),
    "audit.faithful_dim_audit": lambda a, k, r: r.verdict,
}


class Tracer:
    """In-memory span recorder for one single-threaded traced round."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, module: str, name: str, fn):
        """Return fn wrapped so each call records a span named module.name."""
        spans, stack, clock = self.spans, self._stack, self.clock
        label = f"{module}.{name}"
        annotate = ANNOTATE.get(label)

        def traced(*args, **kwargs):
            span = Span(label, module, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn, updated=())
        return traced

    def _patch(self, target, attr: str, module: str, name: str):
        original = getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, self.wrap(module, name, original))

    def install(self, lib) -> None:
        """Patch the boundaries of the udgraph modules held by lib."""
        for mod_name in MODULES:
            mod = getattr(lib, mod_name)
            for attr, obj in sorted(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("udgraph.") or owner == mod.__name__:
                    continue
                if inspect.isfunction(obj) or (inspect.isclass(obj) and attr in CONSTRUCTORS):
                    self._patch(mod, attr, owner.rsplit(".", 1)[1], attr)
        for meth in GRAPH_METHODS:
            self._patch(lib.graphs.Graph, meth, "graphs", f"Graph.{meth}")
        for mod_name, attr in ENTRY_POINTS:
            self._patch(getattr(lib, mod_name), attr, mod_name, attr)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "raised": s.raised}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _mean_ms(durations) -> float:
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def layer_metrics(spans, wall_s: float, untraced_wall_s: float, cli_bytes: int) -> dict:
    """Per-layer metrics of one traced round, name -> (value, unit).

    A ratio whose base is zero on a workload (say, audits on census) reads 0.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(MODULES, 0)
    self_s = dict.fromkeys(MODULES, 0.0)
    by_name: dict = {}
    root_s = 0.0
    for s, own in zip(spans, selfs):
        calls[s.module] += 1
        self_s[s.module] += own
        by_name.setdefault(s.name, []).append(s)
        if s.parent < 0:
            root_s += s.end - s.start

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def dur(group):
        return [s.end - s.start for s in group]

    out = {}
    for m in MODULES:
        out[f"{m}.calls"] = (calls[m], "count")
        out[f"{m}.self_s"] = (self_s[m], "s")

    solves = named("solver.solve_faithful", "solver.solve_distance")
    finished = [s for s in solves if s.info is not None]
    restarts = sum(s.info[0] for s in finished)
    out["solver.restarts"] = (restarts, "count")
    out["solver.ms_per_restart"] = (1e3 * sum(dur(solves)) / restarts if restarts else 0.0, "ms")
    out["solver.found_ratio"] = (
        sum(s.info[1] for s in finished) / len(solves) if solves else 0.0, "ratio")

    verifies = named("verify.verify")
    checked = [s for s in verifies if s.info is not None]
    pairs = sum(n * (n - 1) // 2 for n, _ in (s.info for s in checked))
    out["verify.pairs"] = (pairs, "count")
    out["verify.us_per_pair"] = (1e6 * sum(dur(verifies)) / pairs if pairs else 0.0, "us")
    out["verify.pass_ratio"] = (
        sum(s.info[1] for s in checked) / len(verifies) if verifies else 0.0, "ratio")

    masks = sum(s.info for s in named("census.count_faithful") if s.info is not None)
    out["census.us_per_mask"] = (1e6 * self_s["census"] / masks if masks else 0.0, "us")

    embeds = named("embed.embed_bipartite_faithful")
    out["embed.ms_per_call"] = (_mean_ms(dur(embeds)), "ms")
    out["embed.fail_ratio"] = (
        sum(s.raised for s in embeds) / len(embeds) if embeds else 0.0, "ratio")
    hsys = named("embed.realize_hsystem")
    out["embed.hsystem_calls"] = (len(hsys), "count")
    out["embed.hsystem_ms_per_call"] = (_mean_ms(dur(hsys)), "ms")
    out["geometry.us_per_call"] = (
        1e6 * self_s["geometry"] / calls["geometry"] if calls["geometry"] else 0.0, "us")

    audits = named("audit.faithful_dim_audit")
    for verdict, key in (("NOT_REALIZABLE", "refuted"), ("REALIZABLE", "realizable"),
                         ("UNDECIDED", "undecided")):
        out[f"audit.ms_{key}"] = (_mean_ms(dur([s for s in audits if s.info == verdict])), "ms")

    out["cli.ms_per_call"] = (_mean_ms(dur(named("cli.main"))), "ms")
    out["cli.bytes"] = (cli_bytes, "B")

    out["bench.self_s"] = (wall_s - root_s, "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead"] = (wall_s / untraced_wall_s - 1.0, "ratio")
    return out
