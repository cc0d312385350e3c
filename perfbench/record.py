"""Record the reference answers of a workload, cross-checked.

Every instance is solved the way a run solves it (``comsel solve``,
``auto`` route) under a long deadline.  Where that fails, a second route
supplies the answer: ``--solver dp`` for unlabeled STV elections, and the
same document without the labels no constraint mentions (which cannot
change the feasible set).  Each answer is then cross-checked against a
second route where one applies: forced ``region`` for dp answers under
the score order, and the brute-force oracle wherever the pool fits its
budget.  Any disagreement stops the recording.

    python3 perfbench/record.py --workload overlap

writes ``perfbench/reference/overlap.json``.  Only needed when the
instance matrix in ``workloads.py`` changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from solver import solve_one  # noqa: E402
from speed import DeadlineHit, SpeedSampler  # noqa: E402
from verify import committee_score, ranks  # noqa: E402
from workloads import SPECS, build, rename  # noqa: E402

ORACLE_ENUMERATION = 2_000_000
# seconds allowed to each cross-check route
CROSS_DEADLINE_S = 60.0


def _answer(doc: dict, result: dict) -> dict:
    return {
        "status": result["status"],
        "committee": ranks(doc, result["committee"] or []),
        "score": None if result["score"] is None
        else str(result["score"]),
    }


def _cli(doc: dict, extra: list[str], deadline: float, tmp: str):
    from comsel import cli

    path = os.path.join(tmp, "doc.json")
    out = os.path.join(tmp, "out.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    if os.path.exists(out):
        os.remove(out)
    record = solve_one(cli.main, ["solve", "--input", path, "--output", out]
                       + extra, deadline)
    if record["failure"]:
        return record, None
    with open(out, encoding="utf-8") as handle:
        return record, json.load(handle)


def _big_oracle(doc: dict, deadline: float) -> dict | None:
    """The oracle through the API, with the pool cap lifted."""
    from comsel import cli
    from comsel.bruteforce import OracleBudget, solve_bruteforce
    from comsel.solve import build_order

    m, k = len(doc["candidates"]), doc["k"]
    if math.comb(m, k) > ORACLE_ENUMERATION:
        return None
    instance = cli.parse_instance(json.dumps(doc))
    try:
        with SpeedSampler().step(deadline):
            result = solve_bruteforce(
                instance.profile.candidates, k, instance.constraints,
                build_order(instance), OracleBudget(m, ORACLE_ENUMERATION))
    except DeadlineHit:
        return None
    return cli.result_to_document(result)


def _strip_unused_labels(doc: dict) -> dict:
    used = set()
    for entry in doc["constraints"]:
        used.update(entry[f] for f in ("label", "over", "under") if f in entry)
    return dict(doc, labels={g: members for g, members in doc["labels"].items()
                             if g in used})


def record_instance(spec: dict, deadline: float, tmp: str) -> dict:
    doc = rename(build(spec), 0, spec["name"])
    primary, result = _cli(doc, [], deadline, tmp)
    entry = {"seconds": round(primary["solve_s"], 4),
             "route": result["solver"] if result else primary["failure"]}
    answers: dict[str, dict] = {}
    if result:
        answers["auto"] = _answer(doc, result)
    else:
        if doc["rule"]["type"] == "stv" and not doc["labels"]:
            _, alt = _cli(doc, ["--solver", "dp"], CROSS_DEADLINE_S, tmp)
            if alt:
                answers["dp"] = _answer(doc, alt)
        stripped = _strip_unused_labels(doc)
        if stripped["labels"] != doc["labels"]:
            _, alt = _cli(stripped, [], CROSS_DEADLINE_S, tmp)
            if alt:
                answers["auto-without-unused-labels"] = _answer(doc, alt)
    checks = []
    if doc["order"] == "score" and entry["route"] == "dp":
        checks.append(("region", lambda: _cli(doc, ["--solver", "region"],
                                              CROSS_DEADLINE_S, tmp)[1]))
    if len(doc["candidates"]) <= 14:
        checks.append(("oracle", lambda: _cli(doc, ["--solver", "oracle"],
                                              CROSS_DEADLINE_S, tmp)[1]))
    else:
        checks.append(("oracle", lambda: _big_oracle(doc, CROSS_DEADLINE_S)))
    for route, run in checks:
        if route in answers:
            continue
        alt = run()
        if alt is not None:
            answers[route] = _answer(doc, alt)
    ordered = sorted(doc["candidates"])
    for route, answer in answers.items():
        if answer["status"] == "optimal" and doc["order"] == "score":
            names = [ordered[r] for r in answer["committee"]]
            if str(committee_score(doc, names)) != answer["score"]:
                raise SystemExit(f"{spec['name']}: {route} misreports its score")
    distinct = {json.dumps(a, sort_keys=True) for a in answers.values()}
    if len(distinct) > 1:
        raise SystemExit(f"{spec['name']}: routes disagree: {answers}")
    entry["routes"] = sorted(answers)
    if answers:
        entry.update(next(iter(answers.values())))
    else:
        entry["status"] = "unknown"
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="seconds allowed to the auto route")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="re-record these instances, keep the others")
    args = parser.parse_args(argv)
    path = os.path.join(HERE, "reference", f"{args.workload}.json")
    instances = {}
    if args.only:
        with open(path, encoding="utf-8") as handle:
            instances = json.load(handle)["instances"]
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for spec in SPECS[args.workload]():
            if args.only and spec["name"] not in args.only:
                continue
            entry = record_instance(spec, args.deadline, tmp)
            instances[spec["name"]] = entry
            print(spec["name"], entry["route"], entry["seconds"],
                  entry["status"], entry["routes"], flush=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "instances": instances},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
