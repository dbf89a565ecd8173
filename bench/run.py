#!/usr/bin/env python3
"""udgraph benchmark: run one workload on one seed, print every metric.

    python3 bench/run.py --workload census|realize|bipartite --seed 0 \
        --seconds 20 --trace 0|1

Runs from the root of a source checkout, in this one process, with udgraph
imported from ./src. Set-up (import udgraph, build the inputs from the seed,
one untimed warm-up op) runs once before the timed phase and then between two
ops about once a second; setup_s is the median. The timed phase repeats
rounds over the workload's ops, at least three, until --seconds have
elapsed. Every time is
scaled to the reference speed of the host (harness.HostSpeed). Each op's
latency is the median of its runs, and wall_s is the sum of those. Every
round's outputs are checked after it is timed, and every round must emit the
same digest of JSON.

--trace 0 prints the end-to-end metrics. --trace 1 also runs one traced round
and prints the per-layer metrics instead; its spans go to
.bench_out/spans-<workload>-seed<seed>.jsonl.gz. Each run writes its full
result, with host details, to .bench_out/<workload>-seed<seed>-trace<t>.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md for the metric definitions and the measured spread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUP_EVERY_S = 1.0
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("census", "realize", "bipartite")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _udgraph_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "udgraph" or k.startswith("udgraph.")}


def _import_udgraph(modules):
    """Import udgraph afresh from ./src; returns its modules by short name."""
    for name in _udgraph_modules():
        del sys.modules[name]
    pkg = importlib.import_module("udgraph")
    if Path(pkg.__file__).resolve().parent != SRC / "udgraph":
        raise ImportError(f"udgraph was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"udgraph.{m}") for m in modules})


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "udgraph" / "__init__.py").is_file():
        print(f"bench: no udgraph sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    from harness import (BLAS_THREAD_ENV, HostSpeed, host_info, jeffreys, nearest_rank,
                         run_round)

    # set before numpy loads; and no census process pool either
    for var in BLAS_THREAD_ENV:
        os.environ[var] = "1"
    os.environ.pop("UDG_JOBS", None)
    sys.path.insert(0, str(SRC))

    import numpy  # noqa: F401  (a dependency's import is not udgraph's set-up)

    from tracing import MODULES, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    speed = HostSpeed()
    setups = []  # (start, end) of each set-up

    def set_up():
        t0 = time.perf_counter()
        lib = _import_udgraph(MODULES)
        inputs = workload.inputs(lib, args.seed)
        workload.warmup(lib, inputs)
        setups.append((t0, time.perf_counter()))
        return lib, inputs

    lib, inputs = set_up()
    ops = workload.ops(lib, inputs)
    timed_modules = _udgraph_modules()

    # Rounds spread each op's runs over the whole phase. Before each op the
    # host's speed is sampled, and whenever SETUP_EVERY_S have passed since
    # the last set-up, another runs; the ops' own modules then go back in
    # place, for the imports udgraph makes at call time.
    last_setup = time.perf_counter()

    def between_ops():
        nonlocal last_setup
        speed.sample()
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            set_up()
            sys.modules.update(timed_modules)
            last_setup = time.perf_counter()

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(ops, between_ops))
        rounds[-1].judge(ops)
    speed.sample()  # so that the last op has samples on both sides
    peak_rss = _peak_rss_mb()

    def at_ref_speed(t0, dt):
        return dt * speed.scale(t0, t0 + dt)

    first = rounds[0]
    n_ops = len(ops)
    n_rounds = len(rounds)
    latencies = [statistics.median(at_ref_speed(r.starts_s[i], r.latencies_s[i]) for r in rounds)
                 for i in range(n_ops)]
    wall = sum(latencies)
    digests = {r.digest for r in rounds}
    problems = [q for r in rounds for q in r.problems]
    if len(digests) > 1:
        problems.append(f"same-seed rounds emitted {len(digests)} different digests")
    e2e = {
        "wall_s": (wall, "s"),
        "op_p50_ms": (1e3 * nearest_rank(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * nearest_rank(latencies, 90), "ms"),
        "fail_rate": (jeffreys(first.failed, n_ops), "ratio"),
        "unresolved_share": (jeffreys(first.unresolved, first.outputs), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes = {
        "wall_s": f"sum over {n_ops} ops of each op's median of {n_rounds} runs",
        "op_p50_ms": f"nearest rank over n={n_ops} ops, each the median of {n_rounds} runs",
        "op_p90_ms": f"nearest rank over n={n_ops} ops, "
                     f"{n_ops - math.ceil(0.9 * n_ops)} above it",
        "fail_rate": f"(failed+1/2)/(ops+1); raw {first.failed}/{n_ops} ops failed",
        "unresolved_share": f"(unresolved+1/2)/(outputs+1); "
                            f"raw {first.unresolved}/{first.outputs}",
        "peak_rss_mb": "ru_maxrss at the end of the timed rounds",
    }

    OUT.mkdir(exist_ok=True)
    layers = None
    spans_path = None
    if args.trace:
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = run_round(ops)
        finally:
            tracer.uninstall()
        traced.judge(ops)
        problems += traced.problems
        if traced.digest not in digests:
            problems.append("the traced round emitted different output")
        untraced_s = statistics.median(sum(r.latencies_s) for r in rounds)
        layers = layer_metrics(tracer.spans, traced.wall_s, untraced_s, traced.cli_bytes)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)

    e2e["setup_s"] = (statistics.median(at_ref_speed(t0, t1 - t0) for t0, t1 in setups), "s")
    notes["setup_s"] = f"median of {len(setups)} set-ups"
    host = host_info(args.seed)
    shown = layers if args.trace else e2e
    print(f"udgraph benchmark: workload={args.workload} seed={args.seed} "
          f"rounds={n_rounds} ops/round={n_ops}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"digest: sha256:{first.digest}")
    for name, (value, unit) in shown.items():
        note = "" if args.trace else "  " + notes[name]
        print(f"  {name:<28} {value:>16.6g} {unit:<6}{note}")
    for q in problems[:10]:
        print(f"bench: incorrect: {q}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": n_ops * n_rounds,
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    record = dict(result, workload=args.workload, host=host, digest=first.digest,
                  end_to_end={k: v for k, (v, _) in e2e.items()},
                  per_layer=None if layers is None else {k: v for k, (v, _) in layers.items()},
                  setups_s=[t1 - t0 for t0, t1 in setups],
                  round_walls_s=[r.wall_s for r in rounds],
                  reference_s={"median": statistics.median(speed.took), "min": min(speed.took),
                               "max": max(speed.took), "samples": len(speed.took)},
                  problems=problems[:50],
                  spans=None if spans_path is None else spans_path.name)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
