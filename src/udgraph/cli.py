"""Command line entry point.

Subcommands cover the whole toolkit: generate named graph families,
realize a graph by construction or numeric search, verify an embedding,
audit faithful realizability at a queried dimension, run small censuses,
evaluate counting bounds, and render an embedding to SVG.

Conventions: graphs and embeddings travel as JSON documents; every
subcommand reads its graph from --graph or stdin so commands pipe into
each other; `realize` prints a combined {"graph": ..., "embedding": ...}
document so the output pipes straight into `verify`. Exit status 0 means
success or PASS, 1 means a verification FAIL, a NOT_REALIZABLE verdict,
or a numeric search that came up empty, and 2 means a usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .audit import faithful_dim_audit
from .census import count_distance, count_faithful, ramsey_exact, ramsey_fd_lower, zero_pattern_bound
from .embed import (
    Embedding,
    PreconditionError,
    RealizationError,
    embed_bipartite_faithful,
    embed_colorable,
    embedding_from_json,
)
from .graphs import (
    Graph,
    graph_from_dict,
    graph_to_json,
    make_complete,
    make_complete_multipartite,
    make_kdoubleprime,
    make_kprime,
    make_remark_graph,
)
from .solver import SolverConfig, solve_faithful
from .verify import TOL_VERIFY, classify_pairs, verify


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str | None) -> Graph:
    doc = json.loads(_read_text(path))
    if isinstance(doc, dict) and "graph" in doc and "embedding" in doc:
        doc = doc["graph"]
    return graph_from_dict(doc)


def _load_graph_and_embedding(args) -> tuple:
    """Resolve graph and embedding from --graph/--embedding or a piped doc."""
    graph = None
    embedding = None
    if args.embedding is not None:
        embedding = embedding_from_json(_read_text(args.embedding))
        if args.graph is None:
            raise ValueError("--embedding given without --graph and no piped document")
        graph = _load_graph(args.graph)
        return graph, embedding
    doc = json.loads(_read_text(args.graph if args.graph else None))
    if isinstance(doc, dict) and "embedding" in doc:
        embedding = embedding_from_json(json.dumps(doc["embedding"]))
        if args.graph is not None and "graph" not in doc:
            raise ValueError("document has no graph; pass --graph separately")
        graph = graph_from_dict(doc["graph"]) if "graph" in doc else None
        if graph is None:
            raise ValueError("combined document is missing its graph")
        return graph, embedding
    raise ValueError("no embedding found: pass --embedding or pipe a combined document")


def _combined_doc(g: Graph, emb: Embedding) -> str:
    # assembled textually so the embedding keeps its 17-digit float format
    return '{"graph": ' + graph_to_json(g) + ', "embedding": ' + emb.to_json() + "}"


def _cmd_gen(args) -> int:
    if args.family == "kprime":
        g = make_kprime(_one_param(args))
    elif args.family == "kdoubleprime":
        g = make_kdoubleprime(_one_param(args))
    elif args.family == "remark":
        g = make_remark_graph(_one_param(args))
    elif args.family == "complete":
        g = make_complete(_one_param(args))
    else:  # multipartite
        if not args.params:
            raise ValueError("multipartite needs part sizes, e.g. gen multipartite 3 3")
        g = make_complete_multipartite(args.params)
    _write_text(args.output, graph_to_json(g))
    return 0


def _one_param(args) -> int:
    if len(args.params) != 1:
        raise ValueError(f"family {args.family!r} takes exactly one integer parameter")
    return args.params[0]


def _cmd_realize(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "colorable":
        emb = embed_colorable(g)
        if args.dim is not None:
            if args.dim < emb.dim:
                raise ValueError(
                    f"coloring construction needs dimension {emb.dim}, got --dim {args.dim}"
                )
            if args.dim > emb.dim:
                emb = _pad_embedding(emb, args.dim)
    elif args.method == "bipartite":
        if args.dim is None:
            raise ValueError("--dim is required for method bipartite")
        emb = embed_bipartite_faithful(g, args.dim, seed=args.seed)
    else:  # numeric
        if args.dim is None:
            raise ValueError("--dim is required for method numeric")
        cfg = SolverConfig(seed=args.seed)
        result = solve_faithful(g, args.dim, cfg)
        if result.status != "FOUND":
            sys.stdout.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
            return 1
        emb = result.embedding
    if args.output is not None:
        _write_text(args.output, emb.to_json())
    sys.stdout.write(_combined_doc(g, emb) + "\n")
    return 0


def _pad_embedding(emb: Embedding, dim: int) -> Embedding:
    pts = np.zeros((emb.points.shape[0], dim))
    pts[:, : emb.dim] = emb.points
    return Embedding(dim, pts)


def _cmd_verify(args) -> int:
    g, emb = _load_graph_and_embedding(args)
    report = verify(g, emb, mode=args.mode, tol=args.tol)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0 if report.passed else 1


def _cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    report = faithful_dim_audit(g, args.dim)
    sys.stdout.write(report.to_json() + "\n")
    return 1 if report.verdict == "NOT_REALIZABLE" else 0


def _cmd_census(args) -> int:
    if args.exact_only and args.dim >= 2:
        raise ValueError("--exact-only is only available at --dim 1 (no exact oracle above the line)")
    cfg = SolverConfig(seed=args.seed)
    count = count_faithful if args.semantics == "faithful" else count_distance
    report = count(args.n, args.dim, cfg, jobs=args.jobs)
    if args.csv is not None:
        _write_text(args.csv, report.to_csv())
    sys.stdout.write(report.to_json() + "\n")
    return 0


def _cmd_bound(args) -> int:
    value = zero_pattern_bound(args.n, args.dim)
    sys.stdout.write(f"{value}\n")
    return 0


def _cmd_ramsey(args) -> int:
    if args.kind == "lower":
        sys.stdout.write(f"{ramsey_fd_lower(args.s, args.dim)}\n")
    else:
        cfg = SolverConfig(seed=args.seed)
        outcome = ramsey_exact(args.s, args.dim, max_m=args.max_m, cfg=cfg)
        sys.stdout.write(f"{outcome}\n")
    return 0


def _isometric(pts):
    n, dim = pts.shape
    if dim == 0:
        return np.zeros((n, 2))
    if dim == 1:
        return np.column_stack([pts[:, 0], np.zeros(n)])
    if dim == 2:
        return pts.copy()
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    px = (x - y) * (3.0**0.5 / 2.0)
    py = (x + y) / 2.0 - z
    return np.column_stack([px, py])


def _cmd_plot(args) -> int:
    text = _read_text(args.embedding)
    doc = json.loads(text)
    graph = None
    if isinstance(doc, dict) and "embedding" in doc:
        if "graph" in doc:
            graph = graph_from_dict(doc["graph"])
        emb = embedding_from_json(json.dumps(doc["embedding"]))
    else:
        emb = embedding_from_json(text)

    proj = _isometric(emb.points)
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    span = float(max((hi - lo).max(), 1e-9))
    size, pad = 480.0, 40.0
    scale = (size - 2 * pad) / span

    def sxy(row):
        x = pad + (row[0] - lo[0]) * scale
        y = size - pad - (row[1] - lo[1]) * scale
        return x, y

    if graph is not None:
        edges = sorted(graph.edges)
    else:
        p = classify_pairs(None, emb.points)
        unit = p.dev <= TOL_VERIFY
        edges = zip(p.i[unit].tolist(), p.j[unit].tolist())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for i, j in edges:
        x1, y1 = sxy(proj[i])
        x2, y2 = sxy(proj[j])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="steelblue" stroke-width="1.5"/>'
        )
    for i in range(emb.n):
        x, y = sxy(proj[i])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="crimson"/>')
        parts.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11">{i}</text>')
    parts.append("</svg>")
    _write_text(args.output, "\n".join(parts) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; a malformed UDG_JOBS raises ValueError."""
    jobs_env = os.environ.get("UDG_JOBS", "1")
    try:
        default_jobs = int(jobs_env)
    except ValueError:
        raise ValueError(f"UDG_JOBS must be an integer, got {jobs_env!r}") from None
    top = argparse.ArgumentParser(prog="udgraph", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family as JSON")
    p.add_argument("family", choices=["kprime", "kdoubleprime", "remark", "multipartite", "complete"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("realize", help="construct or search for an embedding")
    p.add_argument("--graph", default=None, help="graph JSON file (default: stdin)")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--method", choices=["colorable", "bipartite", "numeric"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="write bare embedding JSON here")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="check an embedding against a graph")
    p.add_argument("--graph", default=None)
    p.add_argument("--embedding", default=None)
    p.add_argument("--mode", choices=["faithful", "distance"], default="faithful")
    p.add_argument("--tol", type=float, default=TOL_VERIFY)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="certified dimension audit for a bipartite graph")
    p.add_argument("--graph", default=None)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("census", help="count realizable labelled graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--semantics", choices=["faithful", "distance"], default="faithful")
    p.add_argument("--exact-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=default_jobs)
    p.add_argument("--csv", default=None, help="also dump per-graph rows to this CSV file")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bound", help="counting bounds")
    p.add_argument("kind", choices=["zero-pattern"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("ramsey", help="Ramsey-style bounds from the census machinery")
    p.add_argument("kind", choices=["lower", "exact"])
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("plot", help="render an embedding to SVG")
    p.add_argument("--embedding", default=None, help="embedding or combined JSON (default: stdin)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (PreconditionError, RealizationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"udgraph: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
