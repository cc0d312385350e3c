"""Solve step: every document of a run, once each, in one process.

A closed loop with one client: each ``comsel.cli.main(["solve", ...])``
call starts after the previous one returns, in-process, as a CLI user
solving one document after another would.  Solves are timed at reference
speed (``speed.py``), so a neighbour's load does not read as a slower
program; raw CPU and wall times are recorded alongside.  The per-solve
deadline is enforced from outside the program, by the same
``setitimer`` handler, in the same time; it raises a ``BaseException``
subclass, which no ``except Exception`` in comsel swallows.  With
``--trace`` the layer functions are wrapped first (see ``spans.py``) and
the per-layer metrics are added to the output.

    python3 perfbench/solver.py --docs DIR --results DIR --seed 1 \\
        --deadlines deadlines.json --report report.json [--trace spans.jsonl]

``deadlines.json`` maps each document's file name to its deadline in
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import ERROR, LAYERS, NAME, Tracer  # noqa: E402
from speed import DeadlineHit, SpeedSampler  # noqa: E402


_ERROR_CODE = re.compile(r"error\[([\w-]+)\]")


def solve_one(call, argv: list[str], deadline: float,
              sampler: SpeedSampler | None = None) -> dict:
    """Run one solve under the deadline and classify how it ended.

    ``failure`` is None for an answer (exit 0 or 1), ``exit2:<code>`` for
    an error exit, ``exception:<type>`` for an exception escaping the
    CLI, and ``deadline`` when the alarm fired.  ``solve_s`` is the CPU
    time at reference speed.
    """
    err = io.StringIO()
    rc = None
    failure = None
    start = time.perf_counter()
    try:
        with (sampler or SpeedSampler()).step(deadline) as speed:
            with contextlib.redirect_stderr(err):
                rc = call(argv)
    except DeadlineHit:
        failure = "deadline"
    except Exception as exc:  # a crash is a failed solve, not a failed run
        failure = "exception:" + type(exc).__name__
    wall_s = time.perf_counter() - start
    if failure is None and rc == 2:
        code = _ERROR_CODE.search(err.getvalue())
        failure = "exit2:" + (code.group(1) if code else "unknown")
    elif failure is None and rc not in (0, 1):
        failure = f"exit:{rc}"
    return {"solve_s": speed.reference_s, "cpu_s": speed.cpu_s,
            "wall_s": wall_s, "slowdown": speed.slowdown, "rc": rc,
            "failure": failure,
            "stderr": err.getvalue()[-300:]}


def _stv_counts(instance, deadline: float) -> tuple[int, int] | None:
    """Elect rounds and the largest tally denominator in digits, from a
    separate ``stv_rounds`` call outside every span."""
    from comsel.instances import StvRule
    from comsel.stv import stv_rounds

    if instance is None or not isinstance(instance.rule, StvRule):
        return None
    try:
        with SpeedSampler().step(deadline):
            rounds = stv_rounds(instance.profile, instance.rule.variant)
    except DeadlineHit:
        return None
    transfers = sum(1 for r in rounds if r.action == "elect")
    digits = max((len(str(t.denominator)) for r in rounds
                  for t in r.tallies.values()), default=1)
    return transfers, digits


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict:
    """The per-layer metrics of a traced run, name -> (value, unit)."""
    self_s = tracer.self_times()
    counts = tracer.counts
    wall = sum(r["wall_s"] for r in records)
    m: dict[str, tuple[float, str]] = {}
    m["cli.parse_ms"] = (_ms(self_s["cli.parse_instance"]), "ms")
    m["cli.bytes_in"] = (counts["cli.bytes_in"], "B")
    m["elections.score_ms"] = (_ms(self_s["elections.score_all"]), "ms")
    m["elections.ballot_positions"] = (counts["elections.ballot_positions"],
                                       "count")
    m["stv.rank_ms"] = (_ms(self_s["stv.stv_ranking"]), "ms")
    m["stv.transfers"] = (sum(r.get("stv_transfers", 0) for r in records),
                          "count")
    m["stv.tally_digits_max"] = (max((r.get("stv_digits", 0) for r in records),
                                     default=0), "digits")
    m["solve.route_ms"] = (_ms(self_s["solve.choose_solver"]), "ms")
    m["solve.order_ms"] = (_ms(self_s["solve.build_order"]), "ms")
    m["solve.verify_ms"] = (_ms(tracer.verify_seconds()), "ms")
    for route in ("dp", "region", "oracle"):
        m[f"solve.routed_{route}"] = (counts[f"solve.routed_{route}"], "count")
    m["constraints.closure_calls"] = (
        counts["constraints.transitive_closure.calls"], "count")
    m["constraints.closure_ms"] = (
        _ms(self_s["constraints.transitive_closure"]), "ms")
    m["constraints.forest_ms"] = (_ms(self_s["constraints.build"]), "ms")
    m["constraints.check_calls"] = (
        counts["constraints.check_committee.calls"], "count")
    m["constraints.check_ms"] = (_ms(self_s["constraints.check_committee"]),
                                 "ms")
    m["orders.best_singletons_ms"] = (_ms(self_s["orders.best_singletons"]),
                                      "ms")
    m["orders.best_singletons_calls"] = (
        counts["orders.best_singletons.calls"], "count")
    m["treedp.solve_ms"] = (_ms(self_s["treedp.solve_tree"]), "ms")
    m["treedp.preprocess_ms"] = (_ms(self_s["treedp.preprocess_intervals"]),
                                 "ms")
    for key in ("joins", "cells", "tables"):
        m[f"treedp.{key}"] = (counts[f"treedp.{key}"], "count")
    m["regions.solve_ms"] = (_ms(self_s["regions.solve_region_ip"]), "ms")
    for key in ("nodes", "leaves", "regions"):
        m[f"regions.{key}"] = (counts[f"regions.{key}"], "count")
    nodes = counts["regions.nodes"]
    m["regions.leaves_per_node"] = (
        counts["regions.leaves"] / nodes if nodes else 0.0, "1")
    m["bruteforce.solve_ms"] = (_ms(self_s["bruteforce.solve_bruteforce"]),
                                "ms")
    for key in ("examined", "feasible"):
        m[f"bruteforce.{key}"] = (counts[f"bruteforce.{key}"], "count")
    examined = counts["bruteforce.examined"]
    m["bruteforce.feasible_ratio"] = (
        counts["bruteforce.feasible"] / examined if examined else 0.0, "1")
    blamed = [r["blamed"] for r in records if r["failure"] and r.get("blamed")]
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.failed"] = (blamed.count(layer), "count")
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / wall if wall else 0.0, "1")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadlines", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", help="write the spans to this file")
    args = parser.parse_args(argv)

    with open(args.deadlines, encoding="utf-8") as handle:
        deadlines = json.load(handle)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    from comsel import cli

    sampler = SpeedSampler()
    os.makedirs(args.results, exist_ok=True)
    files = sorted(os.listdir(args.docs))
    random.Random(args.seed).shuffle(files)
    records = []
    for solve_id, name in enumerate(files):
        argv_solve = ["solve", "--input", os.path.join(args.docs, name),
                      "--output", os.path.join(args.results, name)]
        deadline = deadlines[name]
        gc.collect()  # garbage of earlier solves is not this solve's cost
        if tracer:
            first = len(tracer.spans)
            record = solve_one(lambda a: tracer.root(solve_id, cli.main, a),
                               argv_solve, deadline, sampler)
            record["blamed"] = (tracer.blamed_layer.get(solve_id, "cli")
                                if record["failure"] else None)
            if any(s[NAME] == "stv.stv_ranking" and s[ERROR] is None
                   for s in tracer.spans[first:]):
                stv = _stv_counts(tracer.last_parsed, deadline)
                if stv:
                    record["stv_transfers"], record["stv_digits"] = stv
            tracer.last_parsed = None
        else:
            record = solve_one(cli.main, argv_solve, deadline, sampler)
        record["file"] = name
        record["deadline"] = deadline
        records.append(record)
    report = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        report["layers"] = layer_metrics(tracer, records)
        tracer.write_spans(args.trace)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
