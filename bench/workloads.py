"""The benchmark's three workloads: census, realize and bipartite.

Each workload builds its inputs, runs one untimed warm-up op, and lists the
ops of one round, each with a judge that checks its output. The
program only ever sees the generated inputs. Why each workload exists, and
which layers it exercises and bypasses, is in README.md.

Every op calls udgraph through the module objects in `lib`, looked up at call
time, so the tracer's patches take effect without the workloads knowing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from harness import Op, Outcome, Raised

TOL_PUBLISHED = 1e-7  # the tolerance `udgraph verify` publishes as its default
MARGIN_NONEDGE = 1e-4  # non-edge clearance the constructions promise

CENSUS_MAX_ITERS = 200  # per descent; the default is 2000
REALIZE_PIPES = 600
BIP_SMALL = 100
BIP_BIG = 2
BIP_RANDOM_AUDITS = 40
# the realize and bipartite generators are fixed, independent of the workload
# seed; see README.md
REALIZE_STREAM = (0, 2)
SMALL_STREAM = (977, 12)
BIG_STREAM = (977, 32)
AUDIT_STREAM = (977, 60)


def _pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _faithful_ok(n: int, edges, points: np.ndarray, tol: float) -> bool:
    """The faithful check, done by the benchmark on its own."""
    dist = _pairwise(points)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    dev = np.abs(dist - 1.0)
    bad_edge = adj & (dev > tol)
    bad_non = ~adj & ((dist <= tol) | (dev <= tol))
    return not bool(np.any((bad_edge | bad_non) & upper))


def _min_nonedge_margin(n: int, edges, points: np.ndarray) -> float:
    dist = _pairwise(points)
    non = np.triu(np.ones((n, n), dtype=bool), k=1)
    for u, v in edges:
        non[min(u, v), max(u, v)] = False
    return float(np.abs(dist[non] - 1.0).min(initial=math.inf))


def _raised(label: str, res: Raised, incorrect: bool) -> Outcome:
    msg = f"{label} {res.describe()}"
    return Outcome(True, msg, unresolved=1, problems=(msg,) if incorrect else ())


# ---------------------------------------------------------------------------
# census


class Census:
    """Two ops: count_faithful(4, 2), then count_faithful(5, 1).

    The solver keeps its default 200 restarts but cuts each descent at
    CENSUS_MAX_ITERS, so that the full-budget path on K_4 takes about 1.5 s,
    not 20 s, and each op runs many times in one run (README.md).
    """

    name = "census"
    jobs = ((4, 2, 63), (5, 1, 206))  # (n, d, labelled graphs realizable)

    def inputs(self, lib, seed: int):
        return lib.solver.SolverConfig(seed=seed, max_iters=CENSUS_MAX_ITERS)

    def warmup(self, lib, cfg) -> None:
        lib.census.count_faithful(3, 2, cfg, jobs=1)

    def ops(self, lib, cfg) -> list:
        return [self._op(lib, cfg, *job) for job in self.jobs]

    @staticmethod
    def _op(lib, cfg, n: int, d: int, expected: int) -> Op:
        label = f"count_faithful({n},{d})"

        def judge(res) -> Outcome:
            if isinstance(res, Raised):
                return _raised(label, res, incorrect=True)
            problems = []
            total = 1 << math.comb(n, 2)
            if res.count_realizable != expected:
                problems.append(f"{label} counted {res.count_realizable}, expected {expected}")
            if len(res.entries) != total or res.count_realizable + res.count_presumed_not != total:
                problems.append(f"{label} does not account for all {total} labelled graphs")
            return Outcome(bool(problems), res.to_json(), outputs=len(res.entries),
                           unresolved=sum(e.method == "SOLVER_EXHAUSTED" for e in res.entries),
                           problems=tuple(problems))

        # jobs=1 explicitly: an inherited UDG_JOBS must not fork a pool
        return Op(lambda: lib.census.count_faithful(n, d, cfg, jobs=1), judge)


# ---------------------------------------------------------------------------
# realize


@dataclass(frozen=True)
class RealizeCase:
    n: int
    d: int
    edges: tuple
    seed: int
    stdin: str


def _cli(lib, argv: list, stdin: str) -> tuple:
    """Run `udgraph <argv>` in process with the given stdin; (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:  # argparse exits on usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Realize:
    """`udgraph realize --method numeric | udgraph verify` on small random graphs."""

    name = "realize"

    def inputs(self, lib, seed: int) -> list:
        # The seed is not used: a few graphs that need many restarts carry
        # about half the time, so per-seed draws would make wall_s and the
        # p90 measure the draw, not the code (numbers in README.md).
        rng = np.random.default_rng(list(REALIZE_STREAM))
        cases = []
        for _ in range(REALIZE_PIPES):
            n, d = (5, 3) if rng.random() < 0.5 else (4, 2)
            pairs = list(combinations(range(n), 2))
            # the all-ones mask is K_{d+2}, which the simplex bound rules out
            mask = int(rng.integers(0, (1 << len(pairs)) - 1))
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            stdin = lib.graphs.graph_to_json(lib.graphs.Graph(n, edges))
            cases.append(RealizeCase(n, d, edges, int(rng.integers(0, 2**31)), stdin))
        return cases

    def warmup(self, lib, cases) -> None:
        # a fixed pipe, so that set-up time does not depend on the seed
        path = ((0, 1), (1, 2), (2, 3))
        stdin = lib.graphs.graph_to_json(lib.graphs.Graph(4, path))
        self._op(lib, RealizeCase(4, 2, path, 0, stdin)).run()

    def ops(self, lib, cases) -> list:
        return [self._op(lib, case) for case in cases]

    @staticmethod
    def _op(lib, case: RealizeCase) -> Op:
        label = f"realize n={case.n} d={case.d} edges={list(case.edges)} seed={case.seed}"
        argv = ["realize", "--dim", str(case.d), "--method", "numeric", "--seed", str(case.seed)]

        def run():
            code1, out1 = _cli(lib, argv, case.stdin)
            if code1 != 0:
                return code1, out1, None, ""
            code2, out2 = _cli(lib, ["verify"], out1)
            return code1, out1, code2, out2

        def judge(res) -> Outcome:
            if isinstance(res, Raised):
                return _raised(label, res, incorrect=True)
            code1, out1, code2, out2 = res
            nbytes = len(case.stdin.encode()) + len(out1.encode())
            if code2 is not None:
                nbytes += len(out1.encode()) + len(out2.encode())
            problems = []
            unresolved = 0
            try:
                doc = json.loads(out1)
                if code1 == 1:
                    # NOT_FOUND: neither a witness nor a certified refutation
                    unresolved = 1
                    if doc["status"] != "NOT_FOUND":
                        problems.append("exit 1 without NOT_FOUND")
                elif code1 == 0:
                    problems += _check_realized(case, doc, code2, json.loads(out2))
                else:
                    problems.append(f"realize exited {code1}")
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output ({exc})")
            return Outcome(code1 != 0 or code2 != 0, out1 + out2, unresolved=unresolved,
                           problems=tuple(f"{label}: {p}" for p in problems),
                           cli_bytes=nbytes)

        return Op(run, judge)


def _check_realized(case: RealizeCase, doc: dict, code2, report: dict) -> list:
    """realize's document carries the input graph, and verify's verdict is right."""
    problems = []
    graph = doc["graph"]
    if graph["n"] != case.n or sorted(tuple(e) for e in graph["edges"]) != sorted(case.edges):
        problems.append("realize returned a different graph")
    points = np.asarray(doc["embedding"]["points"], dtype=float)
    if points.shape != (case.n, case.d):
        problems.append(f"embedding has shape {points.shape}")
        return problems
    truth = _faithful_ok(case.n, case.edges, points, TOL_PUBLISHED)
    if code2 not in (0, 1) or report["passed"] != (code2 == 0) or report["passed"] != truth:
        problems.append(f"verify said passed={report['passed']} (exit {code2}), "
                        f"the benchmark's own check says {truth}")
    return problems


# ---------------------------------------------------------------------------
# bipartite


def _criterion2_graph(lib, rng, na: int, nb: int, d: int):
    """Bipartite graph with A-degrees in 1..d and no three degree-d A twins."""
    while True:
        edges = []
        nbhds = []
        for a in range(na):
            deg = int(rng.integers(1, d + 1))
            nb_ = sorted(int(b) for b in rng.choice(nb, size=deg, replace=False))
            nbhds.append(tuple(nb_))
            edges.extend((a, na + b) for b in nb_)
        twins = Counter(nb_ for nb_ in nbhds if len(nb_) == d)
        if max(twins.values(), default=0) <= 2:
            return lib.graphs.Graph(na + nb, edges)


def _random_audit_graph(lib, rng):
    """Bipartite graph with 1-3 full-degree A vertices and random other A sides."""
    na = int(rng.integers(4, 9))
    nb = int(rng.integers(4, 8))
    nfull = int(rng.integers(1, 4))
    edges = []
    for a in range(na):
        if a < nfull:
            nbhd = range(nb)
        else:
            nbhd = sorted(int(b) for b in rng.choice(nb, size=int(rng.integers(0, nb)),
                                                       replace=False))
        edges.extend((a, na + b) for b in nbhd)
    return lib.graphs.Graph(na + nb, edges, bipartition_a=frozenset(range(na)))


def _witness_problems(lib, g, emb, d: int) -> list:
    if emb.dim != d:
        return [f"witness lives in R^{emb.dim}, not R^{d}"]
    problems = []
    if not lib.verify.verify(g, emb, mode="faithful", tol=TOL_PUBLISHED).passed:
        problems.append(f"witness fails faithful verify at {TOL_PUBLISHED}")
    margin = _min_nonedge_margin(g.n, g.edges, emb.points)
    if margin < MARGIN_NONEDGE:
        problems.append(f"non-edge margin {margin:.3e} below {MARGIN_NONEDGE}")
    return problems


class Bipartite:
    """Faithful bipartite constructions and certified dimension audits."""

    name = "bipartite"

    def inputs(self, lib, seed: int) -> dict:
        # The seed is not used: construction retries and audit verdicts vary
        # so much between draws that per-seed inputs would make the metrics
        # measure the draw, not the code (numbers in README.md).
        mk = lib.graphs
        small_rng = np.random.default_rng(list(SMALL_STREAM))
        small = [(_criterion2_graph(lib, small_rng, 12, 8, 4), 4, i) for i in range(BIP_SMALL)]
        big_rng = np.random.default_rng(list(BIG_STREAM))
        big = [(_criterion2_graph(lib, big_rng, 32, 14, 4), 4, i) for i in range(BIP_BIG)]
        # (graph, d, must be refuted): K'_d is not faithfully realizable in R^d
        sweep = [(mk.make_kprime(d), q, q == d) for d in range(4, 11) for q in (d, d + 1)]
        sweep += [(mk.make_remark_graph(d), q, False)
                  for d in range(3, 6) for q in (d, d + 1, d + 2)]
        audit_rng = np.random.default_rng(list(AUDIT_STREAM))
        randoms = []
        for _ in range(BIP_RANDOM_AUDITS):
            g = _random_audit_graph(lib, audit_rng)
            randoms.append((g, int(audit_rng.integers(2, 8)), False))
        return {"embed": small + big, "audit": sweep + randoms}

    def warmup(self, lib, inputs) -> None:
        # K_{3,3} in R^4: a cheap fixed op
        lib.embed.embed_bipartite_faithful(lib.graphs.make_complete_multipartite([3, 3]), 4)

    def ops(self, lib, inputs) -> list:
        ops = [self._embed_op(lib, *case) for case in inputs["embed"]]
        ops += [self._audit_op(lib, *case) for case in inputs["audit"]]
        return ops

    @staticmethod
    def _embed_op(lib, g, d: int, seed: int) -> Op:
        label = f"embed_bipartite_faithful n={g.n} m={g.m} d={d} seed={seed}"

        def judge(res) -> Outcome:
            if isinstance(res, Raised):
                expected = (lib.embed.PreconditionError, lib.embed.RealizationError)
                return _raised(label, res, incorrect=not isinstance(res.exc, expected))
            problems = _witness_problems(lib, g, res, d)
            return Outcome(bool(problems), res.to_json(),
                           problems=tuple(f"{label}: {p}" for p in problems))

        return Op(lambda: lib.embed.embed_bipartite_faithful(g, d, seed=seed), judge)

    @staticmethod
    def _audit_op(lib, g, d: int, must_refute: bool) -> Op:
        label = f"faithful_dim_audit n={g.n} m={g.m} d={d}"

        def judge(res) -> Outcome:
            if isinstance(res, Raised):
                return _raised(label, res, incorrect=True)
            problems = []
            if res.verdict == "REALIZABLE":
                if res.embedding is None:
                    problems.append("REALIZABLE without a witness")
                else:
                    problems += _witness_problems(lib, g, res.embedding, d)
            elif must_refute and res.verdict != "NOT_REALIZABLE":
                problems.append(f"K'_{d} in R^{d} must be refuted, got {res.verdict}")
            return Outcome(bool(problems), res.to_json(),
                           unresolved=int(res.verdict == "UNDECIDED"),
                           problems=tuple(f"{label}: {p}" for p in problems))

        return Op(lambda: lib.audit.faithful_dim_audit(g, d), judge)


WORKLOADS = {w.name: w for w in (Census(), Realize(), Bipartite())}
