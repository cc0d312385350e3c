"""Instance matrix of the three benchmark workloads.

Each workload is a fixed list of instance specs.  A spec builds one base
document from its own fixed seed, so the matrix and its recorded answers
(``reference/<workload>.json``) never depend on the run's ``--seed``.  The
run's seed changes the surface of every document instead: candidate and
label names get seed-derived prefixes (which keeps their sort order, and
so every tie-break), voters are shuffled, and the solve order is shuffled.
Every seed thus solves the same amount of work and is checked against the
same answers.

Run as a script, this module is the set-up step: it imports comsel,
generates the selected documents and writes them to a directory, then
prints its timings as one JSON line.

    python3 perfbench/workloads.py --workload ballots --seed 1 --seconds 30 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import string
import sys
import time

from speed import SpeedSampler

# The solve set is sized for this many seconds of solving at the seed
# commit; shorter runs solve a proportional prefix of it.
FULL_SECONDS = 30

# Per-solve deadline, in seconds at reference speed (see speed.py).
# ballots and forest allow over twice their slowest answer.  overlap's
# sits in a gap of its solve times: nothing answers between 0.50 s and
# 0.91 s, so no instance is within a factor 1.3 of it.
DEADLINE_S = {"ballots": 8.0, "forest": 8.0, "overlap": 0.68}


# ---------------------------------------------------------------- specs


def _ballots_specs() -> list[dict]:
    rules = ["sntv", "borda", "bloc", "gamma", "stv:simple", "stv:droop_gregory"]
    rng = random.Random("ballots-matrix")
    specs = []
    for i in range(96):
        rule = rules[i % 6]
        stv = rule.startswith("stv:")
        if stv:
            order = ("leximax", "leximin")[(i // 6) % 2]
        else:
            order = "leximax" if i % 18 == 2 else "score"
        # unlabeled stv elections route to the oracle, which refuses m > 14
        labels = 0 if i % 60 in (4, 41) or i % 30 == 0 else rng.choice((2, 3, 4))
        specs.append({
            "name": f"b{i:03d}",
            "kind": "ballots",
            "profile": "ic" if (i // 6) % 2 == 0 else "blocs",
            "m": rng.choice((20, 24, 30, 40)),
            "n": rng.choice((1000, 1500, 2000)),
            "k": rng.choice((3, 4, 5, 6, 8)),
            "labels": labels,
            "rule": rule,
            "order": order,
            "seed": 1000 + i,
        })
    # ROADMAP baseline rows, last so that short runs leave them out
    specs += [
        {"name": "roadmap.score_all_borda_m200_n10000", "kind": "ballots",
         "profile": "ic", "m": 200, "n": 10000, "k": 10, "labels": 3,
         "rule": "borda", "order": "score", "seed": 1},
        {"name": "roadmap.parse_and_dp_borda_m200_n5000", "kind": "ballots",
         "profile": "ic", "m": 200, "n": 5000, "k": 10, "labels": 3,
         "rule": "borda", "order": "score", "seed": 2},
        {"name": "roadmap.stv_simple_m100_n2000_k10", "kind": "ballots",
         "profile": "ic", "m": 100, "n": 2000, "k": 10, "labels": 3,
         "rule": "stv:simple", "order": "leximax", "seed": 3},
        {"name": "roadmap.stv_droop_m100_n2000_k10", "kind": "ballots",
         "profile": "ic", "m": 100, "n": 2000, "k": 10, "labels": 3,
         "rule": "stv:droop_gregory", "order": "leximax", "seed": 4},
    ]
    return specs


def _forest_specs() -> list[dict]:
    shapes = ("chain", "star", "random")
    orders = ("score", "leximax", "leximin")
    rng = random.Random("forest-matrix")
    specs = []
    for i in range(97):
        m, labels = rng.choice(((200, 20), (200, 20), (200, 20), (240, 24)))
        specs.append({
            "name": f"f{i:03d}",
            "kind": "forest",
            "shape": shapes[i % 3],
            "order": orders[(i // 3) % 3],
            "m": m,
            "labels": labels,
            "k": 20,
            "unlabeled": rng.choice((0, 0, m // 10)),
            "seed": 2000 + i,
        })
    for k in (20, 40, 80):
        specs.append({
            "name": f"roadmap.dp_chain_m400_l40_k{k}", "kind": "forest",
            "shape": "chain", "order": "score", "m": 400, "labels": 40,
            "k": k, "unlabeled": 0, "seed": 7,
        })
    # the star beside the k=40 chain: same size, far more joins
    specs.append({
        "name": "star_m400_l40_k40", "kind": "forest", "shape": "star",
        "order": "score", "m": 400, "labels": 40, "k": 40, "unlabeled": 0,
        "seed": 7,
    })
    return specs


def _overlap_specs() -> list[dict]:
    rng = random.Random("overlap-matrix")
    specs = []
    regions = 0
    for i in range(200):
        if i % 5 in (1, 3):
            # pools within the oracle's budget of 14 candidates
            spec = {
                "m": rng.choice((10, 12, 13, 14)),
                "k": rng.choice((4, 5, 6, 7)),
                "labels": rng.choice((3, 4, 5)),
                "rule": rng.choice(("borda", "sntv", "stv:simple",
                                    "stv:droop_gregory")),
                "order": ("leximax", "leximin")[(i // 5) % 2],
            }
        else:
            # four and five labels make the long tail of the search; they
            # stay few enough that fewer than a tenth of all solves fail
            # and solve_ms.p90 is a solve time, not the deadline
            labels = 5 if regions % 24 == 11 else 4 if regions % 6 == 5 else 3
            regions += 1
            spec = {
                "m": rng.choice((30, 40, 50, 60, 80)),
                "k": rng.choice((6, 9, 12, 15)),
                "labels": labels,
                "rule": rng.choice(("borda", "sntv", "bloc", "gamma")),
                "order": "score",
            }
        spec.update(name=f"o{i:03d}", kind="overlap", n=9, seed=3000 + i,
                    unconstrained=0)
        specs.append(spec)
    # labels that no constraint mentions still split candidates into regions
    specs += [
        {"name": "unconstrained_m200_l8", "kind": "overlap",
         "m": 200, "n": 9, "k": 10, "labels": 0,
         "unconstrained": 8, "rule": "borda", "order": "score", "seed": 11},
        # raises RecursionError after about 2.3 s; its own deadline lets
        # the crash, not the deadline, end it
        {"name": "roadmap.recursion_m1500_l12", "kind": "overlap",
         "m": 1500, "n": 9, "k": 10, "labels": 0,
         "unconstrained": 12, "rule": "borda", "order": "score", "seed": 12,
         "deadline_s": 6.0},
    ]
    for s, labels in enumerate((4, 5, 6, 4, 5, 6)):
        specs.append({
            "name": f"roadmap.region_m60_l{labels}_k15_s{s}", "kind": "overlap",
            "m": 60, "n": 9, "k": 15,
            "labels": labels, "unconstrained": 0, "rule": "borda",
            "order": "score", "seed": 100 + s,
        })
    return specs


SPECS = {
    "ballots": _ballots_specs,
    "forest": _forest_specs,
    "overlap": _overlap_specs,
}


def select(workload: str, seconds: int) -> list[dict]:
    """The specs a run of the given length solves: a prefix of the matrix."""
    specs = SPECS[workload]()
    if seconds >= FULL_SECONDS:
        return specs
    return specs[: max(3, math.ceil(len(specs) * seconds / FULL_SECONDS))]


# ------------------------------------------------------------- builders


def _rule_doc(rule: str, m: int, rng: random.Random) -> dict:
    if rule.startswith("stv:"):
        return {"type": "stv", "variant": rule[4:]}
    if rule == "gamma":
        steps = sorted((rng.randint(0, 9) for _ in range(m)), reverse=True)
        return {"type": "weakly_separable", "gamma": steps}
    return {"type": "weakly_separable", "gamma": rule}


def _bloc_voters(cands: list[str], n: int, rng: random.Random) -> list[list[str]]:
    """Voters in 2-4 blocs; each voter perturbs its bloc's ranking by
    random adjacent swaps, so STV transfers stay inside blocs."""
    centres = [rng.sample(cands, len(cands)) for _ in range(rng.randint(2, 4))]
    weights = [rng.randint(1, 4) for _ in centres]
    swaps = max(1, len(cands) // 3)
    voters = []
    for centre in rng.choices(centres, weights, k=n):
        ranking = centre[:]
        for _ in range(swaps):
            j = rng.randrange(len(ranking) - 1)
            ranking[j], ranking[j + 1] = ranking[j + 1], ranking[j]
        voters.append(ranking)
    return voters


def _tree_labels(cands: list[str], count: int, k: int, rng: random.Random):
    """Disjoint labels over part of the candidates, a tree-like dominance
    relation and loose intervals."""
    pool = rng.sample(cands, len(cands))
    size = max(1, len(cands) // (count + 1))
    labels = {f"g{j:02d}": sorted(pool[j * size:(j + 1) * size])
              for j in range(count)}
    names = sorted(labels)
    constraints = []
    for j in range(1, count):
        if rng.random() < 0.6:
            constraints.append({"type": "dominance",
                                "over": names[rng.randrange(j)],
                                "under": names[j]})
    for name in names:
        if rng.random() < 0.5:
            constraints.append({"type": "interval", "label": name,
                                "min": rng.randint(0, 1),
                                "max": min(k, len(labels[name]))})
    return labels, constraints


def _ballots_doc(spec: dict) -> dict:
    from comsel.generators import gen_random

    rng = random.Random(spec["seed"])
    m, n, k = spec["m"], spec["n"], spec["k"]
    if spec["profile"] == "ic":
        profile = gen_random(m, n, k, 0, seed=spec["seed"]).profile
        cands, voters = list(profile.candidates), [list(v) for v in profile.voters]
    else:
        cands = [f"c{i:03d}" for i in range(m)]
        voters = _bloc_voters(cands, n, rng)
    labels, constraints = ({}, [])
    if spec["labels"]:
        labels, constraints = _tree_labels(cands, spec["labels"], k, rng)
    return {"candidates": cands, "voters": voters, "k": k, "labels": labels,
            "constraints": constraints,
            "rule": _rule_doc(spec["rule"], m, rng), "order": spec["order"]}


def _forest_doc(spec: dict) -> dict:
    rng = random.Random(spec["seed"])
    m, count, k = spec["m"], spec["labels"], spec["k"]
    cands = [f"c{i:03d}" for i in range(m)]
    size = (m - spec["unlabeled"]) // count
    labels = {f"g{j:02d}": cands[j * size:(j + 1) * size] for j in range(count)}
    names = sorted(labels)
    constraints = []
    for j in range(1, count):
        parent = {"chain": j - 1, "star": 0}.get(spec["shape"])
        if parent is None:
            parent = rng.randrange(j)
        constraints.append({"type": "dominance", "over": names[parent],
                            "under": names[j]})
    for name in names[::3]:
        constraints.append({"type": "interval", "label": name, "min": 0,
                            "max": rng.randint(max(1, size // 2), size)})
    voters = [rng.sample(cands, m) for _ in range(15)]
    return {"candidates": cands, "voters": voters, "k": k, "labels": labels,
            "constraints": constraints,
            "rule": {"type": "weakly_separable", "gamma": "borda"},
            "order": spec["order"]}


def _overlap_doc(spec: dict) -> dict:
    from comsel.cli import instance_to_document
    from comsel.generators import gen_random
    from comsel.instances import StvRule, WeaklySeparableRule

    rng = random.Random(spec["seed"])
    m, k = spec["m"], spec["k"]
    rule = spec["rule"]
    if rule.startswith("stv:"):
        rule_obj = StvRule(rule[4:])
    else:
        rule_obj = WeaklySeparableRule("borda" if rule == "gamma" else rule)
    instance = gen_random(m, spec["n"], k, spec["labels"], mode="overlapping",
                          structure="arbitrary", seed=spec["seed"],
                          rule=rule_obj, order_kind=spec["order"])
    doc = instance_to_document(instance)
    if rule == "gamma":
        doc["rule"] = _rule_doc("gamma", m, rng)
    for j in range(spec["unconstrained"]):
        doc["labels"][f"u{j:02d}"] = sorted(
            c for c in doc["candidates"] if rng.random() < 0.5)
    return doc


BUILDERS = {"ballots": _ballots_doc, "forest": _forest_doc,
            "overlap": _overlap_doc}


def build(spec: dict) -> dict:
    """The base document of a spec, independent of the run's seed."""
    return BUILDERS[spec["kind"]](spec)


def rename(doc: dict, seed: int, name: str) -> dict:
    """The document as the given run seed presents it.

    Names are replaced by seed-derived prefixes plus their rank in sorted
    order, so every comparison between names, and with it every
    tie-break, is unchanged; voters are shuffled.
    """
    rng = random.Random(f"{seed}:{name}")
    cp = "".join(rng.choices(string.ascii_lowercase, k=2))
    lp = "".join(rng.choices(string.ascii_uppercase, k=2))
    cmap = {c: f"{cp}{r:04d}" for r, c in enumerate(sorted(doc["candidates"]))}
    lmap = {g: f"{lp}{r:02d}" for r, g in enumerate(sorted(doc["labels"]))}
    voters = [[cmap[c] for c in ranking] for ranking in doc["voters"]]
    rng.shuffle(voters)
    constraints = []
    for entry in doc["constraints"]:
        entry = dict(entry)
        for field in ("label", "over", "under"):
            if field in entry:
                entry[field] = lmap[entry[field]]
        constraints.append(entry)
    return {
        "candidates": [cmap[c] for c in doc["candidates"]],
        "voters": voters,
        "k": doc["k"],
        "labels": {lmap[g]: [cmap[c] for c in members]
                   for g, members in doc["labels"].items()},
        "constraints": constraints,
        "rule": doc["rule"],
        "order": doc["order"],
    }


def deadline_of(spec: dict) -> float:
    return spec.get("deadline_s", DEADLINE_S[spec["kind"]])


def doc_filename(index: int, spec: dict) -> str:
    return f"{index:03d}-{spec['name']}.json"


# ------------------------------------------------------------ set-up step


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    gen_s = 0.0
    # timed like the solves: CPU time at reference speed (see speed.py)
    with SpeedSampler().step() as setup:
        import comsel.generators

        original = comsel.generators.gen_random

        def timed_gen_random(*a, **kw):
            nonlocal gen_s
            start = time.thread_time()
            try:
                return original(*a, **kw)
            finally:
                gen_s += time.thread_time() - start

        comsel.generators.gen_random = timed_gen_random
        os.makedirs(args.out, exist_ok=True)
        for index, spec in enumerate(select(args.workload, args.seconds)):
            doc = rename(build(spec), args.seed, spec["name"])
            with open(os.path.join(args.out, doc_filename(index, spec)), "w",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(doc, separators=(",", ":")))
    print(json.dumps({"setup_s": setup.reference_s,
                      "gen_random_s": gen_s / setup.slowdown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
