"""Benchmark of opengame: four closed-loop workloads, checked and optionally traced.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload census --seed 1 --seconds 20 --trace 0

One process, one thread, one item after another.  The inputs are made from
``--seed``; a round is one pass over all of them, and rounds repeat until
``--seconds`` of timed work are done.  Only the calls into opengame are
timed; the checks run between items.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  README.md in this directory explains the statistics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5  # fresh imports before the first round
SETUP_REPEATS_PER_ROUND = 2  # and after each round, so that the samples spread over the run
WALL_LIMIT_S = 150.0  # stop starting rounds past this, to end well inside 180 s


def fresh_import(modules: tuple[str, ...]) -> float:
    """Seconds to import the modules after dropping every opengame module."""
    for name in [m for m in sys.modules if m == "opengame" or m.startswith("opengame.")]:
        del sys.modules[name]
    start = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    return time.perf_counter() - start


def first_setup(modules: tuple[str, ...]) -> list[float]:
    """Fresh imports from this checkout's ``src``; the first also loads the standard library."""
    sys.path.insert(0, SRC)
    times = [fresh_import(modules) for _ in range(SETUP_REPEATS)]
    located = os.path.dirname(os.path.abspath(sys.modules["opengame"].__file__))
    if located != os.path.join(SRC, "opengame"):
        raise ImportError(f"opengame imported from {located}, not from {SRC}")
    return times


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item.key()).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "deep", "fold", "sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wall_start = time.perf_counter()

    sys.path.insert(0, HERE)
    # what each workload calls, imported and timed before workloads.py loads it all
    modules = {
        "census": ("opengame", "opengame.suite"),
        "deep": ("opengame", "opengame.files"),
        "fold": ("opengame",),
        "sampling": ("opengame",),
    }
    try:
        setup_times = first_setup(modules[args.workload])
    except ImportError as exc:
        print(f"cannot import opengame: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, reduce_spans

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        items = workload.make(random.Random(args.seed), workdir)
        print(f"inputs: workload={args.workload} seed={args.seed} items={len(items)} sha256={digest(items)}")
        times: list[list[float]] = [[] for _ in items]
        failed_items: set[int] = set()
        correct = True
        attempted = failed = rounds = 0
        timed = 0.0
        while True:
            gc.collect()
            for i, item in enumerate(items):
                if tracer:
                    tracer.item = f"{rounds}:{i}"
                start = time.perf_counter()
                try:
                    out = workload.run(item)
                except Exception as exc:  # counted, and reported unless expected
                    times[i].append(time.perf_counter() - start)
                    if not workload.expected_failure(item, exc):
                        correct = False
                        traceback.print_exc()
                    failed_items.add(i)
                    continue
                times[i].append(time.perf_counter() - start)
                try:
                    workload.check(item, out)
                except Exception as exc:  # a malformed output fails its check too
                    correct = False
                    failed_items.add(i)
                    print(f"check failed on item {i} ({getattr(item, 'kind', '')}): {exc}", file=sys.stderr)
            rounds += 1
            attempted += len(items)
            failed += len(failed_items)
            timed += sum(t[-1] for t in times)
            if not tracer:
                # the workload keeps the modules it imported; these copies go unused
                setup_times += [fresh_import(modules[args.workload]) for _ in range(SETUP_REPEATS_PER_ROUND)]
            if timed >= args.seconds or time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
            failed_items.clear()
        print(f"rounds={rounds} timed_s={timed:.3f} wall_s={time.perf_counter() - wall_start:.3f}")

        if tracer:
            tracer.uninstall()
            path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv.gz")
            tracer.write(path)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
            metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in reduce_spans(tracer, rounds).items()}
        else:
            # per item, its median round: the host's speed moves in phases of
            # seconds, and a short fast phase moves an item's fastest round
            # much more than its median one
            typical = [statistics.median(t) for t in times]
            done = [typical[i] for i in range(len(items)) if i not in failed_items]
            metrics = {
                "items_per_s": {"value": len(done) / sum(typical), "unit": "1/s"},
                "item_p50_ms": {"value": 1000.0 * statistics.median(done), "unit": "ms"},
                "setup_s": {"value": min(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
