"""Reference check of one solve's result document.

Committees are compared by candidate rank (position in sorted name
order), which the run seed's renaming keeps, so one recorded reference
serves every seed.  Scores are recomputed from the ballots here, outside
comsel's scoring code.
"""

from __future__ import annotations

from fractions import Fraction


def ranks(doc: dict, names: list[str]) -> list[int]:
    index = {c: r for r, c in enumerate(sorted(doc["candidates"]))}
    return sorted(index[c] for c in names)


def gamma_of(doc: dict) -> list[int] | None:
    """The positional vector of the document's rule; None for STV."""
    rule = doc["rule"]
    if rule["type"] != "weakly_separable":
        return None
    m, k = len(doc["candidates"]), doc["k"]
    gamma = rule["gamma"]
    if gamma == "sntv":
        return [1] + [0] * (m - 1)
    if gamma == "borda":
        return list(range(m - 1, -1, -1))
    if gamma == "bloc":
        return [1] * k + [0] * (m - k)
    return list(gamma)


def committee_score(doc: dict, committee: list[str]) -> Fraction:
    """Sum over voters of the positional points the members receive."""
    gamma = gamma_of(doc)
    members = set(committee)
    total = 0
    for ranking in doc["voters"]:
        for position, candidate in enumerate(ranking):
            if candidate in members:
                total += gamma[position]
    return Fraction(total)


def _constraint_set(doc: dict):
    from comsel.constraints import ConstraintSet, Dominance, Interval

    intervals = [Interval(c["label"], c["min"], c["max"])
                 for c in doc["constraints"] if c["type"] == "interval"]
    dominances = [Dominance(c["over"], c["under"])
                  for c in doc["constraints"] if c["type"] == "dominance"]
    return ConstraintSet.build(doc["labels"], intervals, dominances)


def mismatch(doc: dict, result: dict, reference: dict) -> str | None:
    """Why the result disagrees with the reference, or None if it agrees.

    A reference of status ``unknown`` (no route answered while recording)
    still checks an optimal result's feasibility and score arithmetic.
    """
    from comsel.constraints import check_committee

    known = reference["status"] != "unknown"
    if known and result.get("status") != reference["status"]:
        return f"status {result.get('status')} != {reference['status']}"
    if result.get("status") != "optimal":
        return None
    committee = result.get("committee") or []
    unknown = set(committee) - set(doc["candidates"])
    if unknown:
        return f"unknown candidates {sorted(unknown)[:3]}"
    if known and ranks(doc, committee) != reference["committee"]:
        return "committee differs from the reference"
    broken = check_committee(committee, doc["k"], _constraint_set(doc))
    if broken:
        return "committee breaks " + broken[0].describe()
    if doc["order"] == "score":
        score = committee_score(doc, committee)
        if known and score != Fraction(reference["score"]):
            return f"recomputed score {score} != reference {reference['score']}"
        reported = result.get("score")
        if reported is None or Fraction(reported) != score:
            return f"reported score {reported} != {score}"
    return None
