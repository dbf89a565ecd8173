"""Command line entry point.

Subcommands cover the whole toolkit: generate named graph families,
realize a graph by construction or numeric search, verify an embedding,
audit faithful realizability at a queried dimension, run small censuses,
evaluate counting bounds, and render an embedding to SVG.

Conventions: graphs and embeddings travel as JSON documents, from a file or
stdin, so commands pipe into each other. One reader (_read_doc) takes a
graph, an embedding or the combined {"graph": ..., "embedding": ...}
document that `realize` prints; each command uses the part it needs. Exit
status 0 means success or PASS, 1 means a verification FAIL, a
NOT_REALIZABLE verdict, or a numeric search that came up empty, and 2 means
a usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .audit import faithful_dim_audit
from .census import count_distance, count_faithful, ramsey_fd_lower, zero_pattern_bound
from .embed import (
    Embedding,
    RealizationError,
    embed_bipartite_faithful,
    embed_colorable,
    embedding_from_dict,
)
from .graphs import (
    MAX_DOCUMENT_N,
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
    """text, ended by one newline if it has none, to the file at path or stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_doc(path: str | None) -> tuple:
    """(graph or None, embedding or None) from the document at path or on
    stdin. A dict with an "embedding" key is a combined document, whose
    graph is optional; a dict with "dim" or "points" is an embedding; anything
    else is read as a graph. A malformed part raises ValueError."""
    doc = json.loads(_read_text(path))
    if isinstance(doc, dict) and "embedding" in doc:
        g = graph_from_dict(doc["graph"]) if "graph" in doc else None
        return g, embedding_from_dict(doc["embedding"])
    if isinstance(doc, dict) and ("dim" in doc or "points" in doc):
        return None, embedding_from_dict(doc)
    return graph_from_dict(doc), None


def _part(part, name: str):
    """part, or a ValueError naming what the input lacks."""
    if part is None:
        raise ValueError(f"the input holds no {name}; give a {name} or a combined document")
    return part


def _load_graph(path: str | None) -> Graph:
    return _part(_read_doc(path)[0], "graph")


def _combined_doc(g: Graph, emb: Embedding) -> str:
    # assembled textually so the embedding keeps its 17-digit float format
    return '{"graph": ' + graph_to_json(g) + ', "embedding": ' + emb.to_json() + "}"


# family: (builder of its one integer parameter, vertex count of the parameter)
_ONE_PARAM_FAMILIES = {
    "kprime": (make_kprime, lambda d: 2 * d),
    "kdoubleprime": (make_kdoubleprime, lambda d: 2 * d),
    "remark": (make_remark_graph, lambda d: 2 * (d + 2)),
    "complete": (make_complete, lambda n: n),
}


def _cmd_gen(args) -> int:
    if args.family == "multipartite":
        if not args.params:
            raise ValueError("multipartite needs part sizes, e.g. gen multipartite 3 3")
        build, param, n = make_complete_multipartite, args.params, sum(args.params)
    else:
        if len(args.params) != 1:
            raise ValueError(f"family {args.family!r} takes exactly one integer parameter")
        build, count = _ONE_PARAM_FAMILIES[args.family]
        param = args.params[0]
        n = count(param)
    # checked before building: every reader rejects a larger document
    if n > MAX_DOCUMENT_N:
        raise ValueError(
            f"family {args.family!r} would have {n} vertices; graphs are capped at {MAX_DOCUMENT_N}"
        )
    _write_text(args.output, graph_to_json(build(param)))
    return 0


def _cmd_realize(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "colorable":
        emb = embed_colorable(g)
        if args.dim is not None:
            if args.dim < emb.dim:
                raise ValueError(
                    f"coloring construction needs dimension {emb.dim}, got --dim {args.dim}"
                )
            emb = Embedding(args.dim, np.pad(emb.points, ((0, 0), (0, args.dim - emb.dim))))
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


def _cmd_verify(args) -> int:
    if args.embedding is not None and args.graph is None:
        raise ValueError("--embedding needs --graph: the graph is not read from stdin")
    g, emb = _read_doc(args.graph)
    if args.embedding is not None:
        emb = _read_doc(args.embedding)[1]
    report = verify(_part(g, "graph"), _part(emb, "embedding"), mode=args.mode, tol=args.tol)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0 if report.passed else 1


def _cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    report = faithful_dim_audit(g, args.dim)
    sys.stdout.write(report.to_json() + "\n")
    return 1 if report.verdict == "NOT_REALIZABLE" else 0


def _cmd_census(args) -> int:
    cfg = SolverConfig(seed=args.seed)
    count = count_faithful if args.semantics == "faithful" else count_distance
    report = count(args.n, args.dim, cfg)
    if args.csv is not None:
        _write_text(args.csv, report.to_csv())
    sys.stdout.write(report.to_json() + "\n")
    return 0


def _cmd_bound(args) -> int:
    # str(int) refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default; the bound has 7468 at n = 2000, d = 1); Decimal prints them all.
    # Imported here, so the other commands do not load it.
    import decimal

    value = zero_pattern_bound(args.n, args.dim)
    sys.stdout.write(f"{decimal.Decimal(value)}\n")
    return 0


def _cmd_ramsey(args) -> int:
    sys.stdout.write(f"{ramsey_fd_lower(args.s, args.dim)}\n")
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
    graph, emb = _read_doc(args.embedding)
    emb = _part(emb, "embedding")
    # a graph's own edges, or else every pair at unit length; classify_pairs
    # also rejects a graph whose vertex count differs from the point count
    p = classify_pairs(graph, emb.points)
    drawn = p.edge if graph is not None else p.dev <= TOL_VERIFY
    edges = zip(p.i[drawn].tolist(), p.j[drawn].tolist())

    proj = _isometric(emb.points)
    lo = proj.min(axis=0, initial=np.inf)
    hi = proj.max(axis=0, initial=-np.inf)
    span = float(max((hi - lo).max(), 1e-9))
    size, pad = 480.0, 40.0
    scale = (size - 2 * pad) / span

    def sxy(row):
        x = pad + (row[0] - lo[0]) * scale
        y = size - pad - (row[1] - lo[1]) * scale
        return x, y

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
    _write_text(args.output, "\n".join(parts))
    return 0


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _side_file(text: str) -> str:
    """A side-file path: stdout already carries the command's JSON document,
    so '-' is refused rather than written ahead of it."""
    if text == "-":
        raise argparse.ArgumentTypeError("'-' would mix into the JSON on stdout; name a file")
    return text


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name, built on
    first use and shared by every later call in the process; nothing changes
    them after they are built."""
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", type=_side_file, default=None,
                   help="write bare embedding JSON here")
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--csv", type=_side_file, default=None,
                   help="also dump per-graph rows to this CSV file")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bound", help="counting bounds")
    p.add_argument("kind", choices=["zero-pattern"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("ramsey", help="counting lower bound on the faithful Ramsey number")
    p.add_argument("kind", choices=["lower"])
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("plot", help="render an embedding to SVG")
    p.add_argument("--embedding", default=None, help="embedding or combined JSON (default: stdin)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return top, sub.choices


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as the top-level parser's parse_args does, with the same
    usage errors, but in one pass: a subcommand's arguments go straight to
    its own parser. The top-level parser takes every other argv (none, -h,
    an unknown name) and reports arguments the subcommand leaves over."""
    top, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        top.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    # ValueError covers PreconditionError and json.JSONDecodeError
    except (RealizationError, ValueError, OSError, MemoryError) as exc:
        print(f"udgraph: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
