"""Self-test of the benchmark harness on tiny versions of the workloads.

    python3 perfbench/selftest.py

Checks that every run prints each metric of BENCHMARK.json with its
unit, that a corrupted result is caught as a mismatch, that a hang is
classified as a deadline failure, that a known extra load in one layer
comes through in ``solve_s`` at about its own size, that the solver
counters repeat across two traced runs, and that the benchmark refuses to
run without the program's sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from solver import solve_one  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from verify import ranks  # noqa: E402
from workloads import SPECS, build, rename  # noqa: E402

REPEATED = ("treedp.joins", "regions.nodes", "bruteforce.examined",
            "stv.transfers")
TINY_SECONDS = 1
# how far a known load's share of solve_s may stray from its own time
CALIBRATION_TOLERANCE = 0.25


def _bench(workload: str, trace: int, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return done


def _last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metric_names(workload: str, spec: dict) -> dict:
    """Both kinds of run print every declared metric with its unit."""
    counters = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        done = _bench(workload, trace)
        assert done.returncode == 0, done.stderr
        out = _last_json(done)
        assert out["correct"] is True and out["attempted"] >= 1, out
        expected = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: v["unit"] for name, v in out["metrics"].items()}
        assert printed == expected, (workload, key, printed, expected)
        for name, unit in expected.items():
            assert f"  {name} = " in done.stdout and f" {unit}\n" in done.stdout
        if trace:
            counters.append({n: out["metrics"][n]["value"] for n in REPEATED})
    assert counters[0] == counters[1], (workload, counters)
    return counters[0]


def _tiny_doc(tmp: str) -> tuple[dict, str]:
    spec = SPECS["forest"]()[0]
    doc = rename(build(spec), 5, spec["name"])
    path = os.path.join(tmp, "doc.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return doc, path


def check_mismatch(tmp: str) -> None:
    """A corrupted committee is a mismatch; the intact one is not."""
    from comsel import cli

    doc, path = _tiny_doc(tmp)
    out = os.path.join(tmp, "result.json")
    record = solve_one(cli.main, ["solve", "--input", path, "--output", out],
                       30.0)
    assert record["failure"] is None, record
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    reference = {"status": "optimal",
                 "committee": ranks(doc, result["committee"]),
                 "score": str(result["score"])}
    results = os.path.join(tmp, "results")
    os.makedirs(results)
    good = dict(result)
    outsider = next(c for c in doc["candidates"] if c not in result["committee"])
    bad = dict(result, committee=[outsider] + result["committee"][1:])
    records = []
    for name, body in (("good.json", good), ("bad.json", bad)):
        shutil.copy(path, os.path.join(tmp, name))
        with open(os.path.join(results, name), "w", encoding="utf-8") as h:
            json.dump(body, h)
        records.append({"file": name, "name": "tiny", "failure": None})
    run.evaluate(records, tmp, results, {"tiny": reference})
    assert records[0]["failure"] is None, records[0]
    assert records[1]["failure"] == "mismatch", records[1]


def check_failure_classes() -> None:
    """A hang is a deadline failure; crashes and error exits keep their
    class."""
    def hang(argv):
        while True:
            pass

    def crash(argv):
        raise RecursionError("deep")

    def budget(argv):
        print("error[budget]: too many committees", file=sys.stderr)
        return 2

    assert solve_one(hang, [], 0.2)["failure"] == "deadline"
    assert solve_one(crash, [], 5.0)["failure"] == "exception:RecursionError"
    assert solve_one(budget, [], 5.0)["failure"] == "exit2:budget"
    assert run.charged({"failure": "deadline", "cpu_s": 0.2,
                        "deadline": 9.0}) == 9.0


def _allocating_load() -> None:
    # many short-lived, collector-tracked objects: the collector runs often
    junk = [(i, Fraction(i, 7), [i]) for i in range(40_000)]
    del junk


def check_calibration(tmp: str) -> dict:
    """A fixed extra load in the tree DP comes through in ``solve_s`` at
    about its own time at reference speed.

    Each load is timed alone, then a forest solve runs once plain and once
    with the load before its ``solve_tree`` call.  The rise in ``solve_s``
    over the load's own time is one ratio; the check takes the median of
    fifteen.  A ratio of 1 means the speed probes neither cancel nor
    inflate a change in the program's memory behaviour.
    """
    from comsel import cli, solve

    sampler = SpeedSampler()
    paths = []
    for spec in SPECS["forest"]()[:3]:
        path = os.path.join(tmp, f"{spec['name']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rename(build(spec), 5, spec["name"]), handle)
        paths.append(path)
    walked = [float(i) for i in range(1_000_000)]
    random.Random(0).shuffle(walked)  # a walk in random memory order

    def walking_load() -> None:
        # reads 1 000 000 objects spread over about 30 MB, evicting the caches
        for _ in range(3):
            sum(walked)

    loads = {"allocating": _allocating_load, "walking": walking_load}
    original = solve.solve_tree
    alone: dict[str, list] = {name: [] for name in loads}
    ratios: dict[str, list] = {name: [] for name in loads}

    def timed_solve(path: str, load) -> float:
        def loaded(*args, **kwargs):
            load()
            return original(*args, **kwargs)

        solve.solve_tree = loaded if load else original
        gc.collect()
        record = solve_one(cli.main, ["solve", "--input", path, "--output",
                                      os.path.join(tmp, "out.json")],
                           60.0, sampler)
        assert record["failure"] is None, record
        return record["solve_s"]

    try:
        for _ in range(5):
            for path in paths:
                for name, load in loads.items():
                    gc.collect()
                    with sampler.step() as step:
                        load()
                    plain = timed_solve(path, None)
                    rise = timed_solve(path, load) - plain
                    alone[name].append(step.reference_s)
                    ratios[name].append(rise / step.reference_s)
    finally:
        solve.solve_tree = original
    out = {}
    for name in loads:
        ratio = statistics.median(ratios[name])
        assert abs(ratio - 1.0) <= CALIBRATION_TOLERANCE, (name, ratios[name])
        out[name] = (round(statistics.median(alone[name]) * 1000.0, 1),
                     round(ratio, 3))
    return out


def check_refuses_without_sources() -> None:
    """With only BENCHMARK.json and perfbench/, the run fails cleanly."""
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench("forest", 0, cwd=bare)
        assert done.returncode not in (0, None), done
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_failure_classes()
    print("ok: hang -> deadline, crash -> exception, exit 2 -> error code")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        check_mismatch(tmp)
        print("ok: a corrupted committee is a mismatch")
        calibration = check_calibration(tmp)
        print("ok: a known load comes through in solve_s; "
              "load: (ms alone, rise over that): " + str(calibration))
    check_refuses_without_sources()
    print("ok: no result without the program's sources")
    for workload in sorted(SPECS):
        counters = check_metric_names(workload, spec)
        print(f"ok: {workload}: every metric printed with its unit; "
              f"counters repeat: {counters}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
