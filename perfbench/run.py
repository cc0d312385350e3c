"""comsel solve benchmark: seeded instance documents through the CLI.

    python3 perfbench/run.py --workload {ballots,forest,overlap} \\
        --seed N --seconds S --trace {0,1}

Set-up (``workloads.py``) runs in child processes, several times, and
reports the median as ``setup_s``.  The solves run in another child
(``solver.py``) so that set-up does not set its peak memory.  Every
result is then checked against the recorded reference (``verify.py``).
With ``--trace 1`` a second, traced solve pass gives the per-layer
metrics, and the untraced pass gives the denominator of
``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a result disagrees with its reference, 2 when the benchmark cannot
run, and 0 otherwise.  Runtime files go to ``.perfbench/`` at the root of
the checkout; the spans of a traced run stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def _child(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        check=True)


def charged(record: dict, clock: str = "solve_s") -> float:
    """A failed solve costs its deadline, so a fast failure never reads as
    a speed-up."""
    return record["deadline"] if record["failure"] else record[clock]


def evaluate(records: list[dict], docs: str, results: str,
             references: dict) -> None:
    """Mark every answered solve whose result disagrees with its reference
    as a failed solve of class ``mismatch``."""
    from verify import mismatch

    for record in records:
        if record["failure"]:
            continue
        with open(os.path.join(docs, record["file"]), encoding="utf-8") as f:
            doc = json.load(f)
        with open(os.path.join(results, record["file"]), encoding="utf-8") as f:
            result = json.load(f)
        reference = references[record["name"]]
        record["unverified"] = reference["status"] == "unknown"
        reason = mismatch(doc, result, reference)
        if reason:
            record["failure"] = "mismatch"
            record["mismatch"] = reason


def middle_mean(times: list[float]) -> float:
    """The mean of the middle tenth of the times, from the 45th to the
    55th percentile.  Short solves spread by about a tenth each, and on
    overlap the median falls where the times are sparse, so the plain
    median of one run hinges on one or two solves."""
    ordered = sorted(times)
    n = len(ordered)
    middle = ordered[round(0.45 * n):round(0.55 * n)]
    return statistics.fmean(middle) if middle else statistics.median(ordered)


def _times(records: list[dict], clock: str, prefix: str, total: str) -> dict:
    times = [charged(r, clock) for r in records]
    return {
        total: (sum(times), "s"),
        f"{prefix}.p50": (middle_mean(times) * 1000.0, "ms"),
        f"{prefix}.p90": (statistics.quantiles(times, n=10)[8] * 1000.0, "ms"),
    }


def end_to_end(records: list[dict], setup: list[float],
               peak_rss_mb: float) -> dict:
    """The gated metrics; times are CPU times at reference speed."""
    failed = sum(1 for r in records if r["failure"])
    return {
        **_times(records, "solve_s", "solve_ms", "solve_s"),
        "answered_ratio": (1.0 - failed / len(records), "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def as_measured(records: list[dict]) -> dict:
    """Raw CPU and wall times, printed but not gated: on a shared machine
    they also count a neighbour's load."""
    failed = sum(1 for r in records if r["failure"])
    return {
        **_times(records, "wall_s", "wall_ms", "wall_s"),
        **_times(records, "cpu_s", "cpu_ms", "cpu_s"),
        "slowdown": (statistics.median(r["slowdown"] for r in records), "1"),
        "failed_ratio": (failed / len(records), "1"),
    }


def _solve_pass(work: str, docs: str, seed: int, names: dict,
                references: dict, trace: str | None) -> dict:
    tag = "traced" if trace else "plain"
    results = os.path.join(work, f"results-{tag}")
    report = os.path.join(work, f"report-{tag}.json")
    args = ["--docs", docs, "--results", results, "--seed", str(seed),
            "--deadlines", os.path.join(work, "deadlines.json"),
            "--report", report]
    if trace:
        args += ["--trace", trace]
    _child("solver.py", *args)
    with open(report, encoding="utf-8") as handle:
        out = json.load(handle)
    for record in out["records"]:
        record["name"] = names[record["file"]]
    evaluate(out["records"], docs, results, references)
    return out


def _print_run(records: list[dict]) -> None:
    classes = Counter(r["failure"] for r in records if r["failure"])
    deadlines = sorted({r["deadline"] for r in records})
    print(f"solves: {len(records)} attempted, {sum(classes.values())} failed; "
          f"deadline {' or '.join(f'{d:g}' for d in deadlines)} s; "
          f"closed loop, one client")
    for failure, count in sorted(classes.items()):
        print(f"  failure class {failure}: {count}")
    for record in records:
        if record.get("mismatch"):
            print(f"  mismatch {record['name']}: {record['mismatch']}")
        elif record.get("unverified"):
            print(f"  answered without a recorded reference: {record['name']}")
    for record in sorted(records, key=lambda r: r["name"]):
        if record["name"].startswith("roadmap."):
            outcome = record["failure"] or "answered"
            print(f"  instance {record['name']}: "
                  f"{record['solve_s'] * 1000.0:.1f} ms at reference speed, "
                  f"{record['wall_s'] * 1000.0:.1f} ms wall ({outcome})")


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ballots", "forest", "overlap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "comsel", "cli.py")):
        print("error: no comsel sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import deadline_of, doc_filename, select

    specs = select(args.workload, args.seconds)
    with open(os.path.join(HERE, "reference", f"{args.workload}.json"),
              encoding="utf-8") as handle:
        references = json.load(handle)["instances"]
    missing = [s["name"] for s in specs if s["name"] not in references]
    if missing:
        print(f"error: no reference for {missing[0]}; see perfbench/record.py",
              file=sys.stderr)
        return 2
    names = {doc_filename(i, s): s["name"] for i, s in enumerate(specs)}
    deadlines = {doc_filename(i, s): deadline_of(s)
                 for i, s in enumerate(specs)}

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    docs = os.path.join(work, "docs")
    try:
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(work, "deadlines.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(deadlines, handle)
        return _run(args, work, docs, names, references)
    except subprocess.CalledProcessError as exc:
        print(f"error: {os.path.basename(exc.cmd[1])} exited {exc.returncode}"
              f"\n{exc.stderr[-2000:]}", file=sys.stderr)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {os.path.basename(exc.cmd[1])} ran over "
              f"{exc.timeout:g} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 2


def _run(args, work: str, docs: str, names: dict, references: dict) -> int:
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(docs, ignore_errors=True)
        done = _child("workloads.py", "--workload", args.workload, "--seed",
                      str(args.seed), "--seconds", str(args.seconds),
                      "--out", docs)
        setups.append(json.loads(done.stdout.splitlines()[-1]))
    plain = _solve_pass(work, docs, args.seed, names, references, None)
    records = plain["records"]
    _print_run(records)
    metrics = end_to_end(records, [s["setup_s"] for s in setups],
                         plain["peak_rss_mb"])
    _print_metrics(f"end-to-end metrics, workload {args.workload}, "
                   f"seed {args.seed}:", metrics)
    _print_metrics("as measured (not gated):", as_measured(records))
    checked = list(records)
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = _solve_pass(work, docs, args.seed, names, references, spans)
        checked += traced["records"]
        traced_wall = sum(r["wall_s"] for r in traced["records"])
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["generators.gen_ms"] = (setups[0]["gen_random_s"] * 1000.0,
                                        "ms")
        metrics["trace.overhead_ratio"] = (
            sum(r["solve_s"] for r in traced["records"])
            / sum(r["solve_s"] for r in records), "1")
        _print_metrics(f"per-layer metrics (traced pass; shares are of its "
                       f"{traced_wall:.3f} s of solving on the wall clock; "
                       f"spans in {os.path.relpath(spans, ROOT)}):", metrics)

    mismatches = sum(1 for r in checked if r["failure"] == "mismatch")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
