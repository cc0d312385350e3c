"""Command-line interface and the JSON instance format.

Exit codes: 0 for an optimal committee or a passing check, 1 for an
infeasible instance or a failing check, 2 for any input, contract, budget,
I/O or internal problem.  Errors carry a short machine-readable code
printed as ``error[code]: message`` on stderr.  Usage errors (a missing
or ill-typed option) are argparse's: a ``usage:`` line and exit status 2,
raised as ``SystemExit(2)`` when ``main`` is called in-process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .bruteforce import OracleBudget
from .constraints import ConstraintSet, Dominance, Interval, check_committee
from .elections import ElectionProfile, Score
from .errors import ComselError, InputError
from .instances import (
    MODES,
    ORDER_KINDS,
    STRUCTURES,
    ElectionInstance,
    Rule,
    StvRule,
    WeaklySeparableRule,
)
from .result import SolveResult
from .solve import SOLVERS, solve_instance

_TOP_FIELDS = frozenset(
    {"candidates", "voters", "k", "labels", "constraints", "rule", "order",
     "reference"}
)
# exact field sets of the typed records, in the order messages list them
_CONSTRAINT_FIELDS = {
    "interval": ("type", "label", "min", "max"),
    "dominance": ("type", "over", "under"),
}
_RULE_FIELDS = {
    "weakly_separable": ("type", "gamma"),
    "stv": ("type", "variant"),
}


def _require(doc: dict, field: str) -> Any:
    if field not in doc:
        raise InputError(f"missing field {field!r}", code="missing-field")
    return doc[field]


def _typed(value: Any, kind: type, field: str, noun: str) -> Any:
    if not isinstance(value, kind):
        raise InputError(f"field {field!r} must be {noun}", code="malformed-field")
    return value


def _string_list(value: Any, field: str) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise InputError(
            f"field {field!r} must be a list of strings", code="malformed-field"
        )
    return value


def _record_kind(
    raw: dict, shapes: dict[str, tuple[str, ...]], code: str, where: str
) -> str:
    """The record's ``type``, once its fields are exactly the ones that
    type takes."""
    kind = raw.get("type")
    fields = shapes.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise InputError(f"{where} has unsupported type {kind!r}", code=code)
    if set(raw) != set(fields):
        raise InputError(
            f"{where} needs exactly the fields {', '.join(fields)}", code=code
        )
    return kind


def _parse_constraint(entry: Any, where: str) -> Interval | Dominance:
    if not isinstance(entry, dict):
        raise InputError(f"{where} must be an object", code="invalid-constraint")
    kind = _record_kind(entry, _CONSTRAINT_FIELDS, "invalid-constraint", where)
    if kind == "interval":
        return Interval(entry["label"], entry["min"], entry["max"])
    return Dominance(entry["over"], entry["under"])


def _parse_rule(raw: Any) -> Rule:
    _typed(raw, dict, "rule", "an object")
    if _record_kind(raw, _RULE_FIELDS, "invalid-rule", "rule") == "stv":
        return StvRule(raw["variant"])
    return WeaklySeparableRule(raw["gamma"])


def _exact_decimal(text: str) -> Fraction:
    """A JSON decimal as an exact Fraction.  Fraction builds 10**exponent,
    so an exponent beyond Python's integer digit limit is refused first."""
    limit = sys.get_int_max_str_digits()
    exponent = text.lower().partition("e")[2]
    if limit and exponent and abs(int(exponent)) > limit:
        raise ValueError(f"{text} needs more than {limit} digits")
    return Fraction(text)


def parse_instance(text: str) -> ElectionInstance:
    """Read a JSON instance document, naming the first violation.

    The parser checks the document's shape only: field types, required
    fields and exact field sets.  Decimal numbers are read as exact
    Fractions (``0.1`` is 1/10, not the nearest float); a number past
    Python's integer digit limit, or nesting past its recursion limit, is
    malformed JSON.  Every semantic check is made by the model constructors,
    whose ``InputError`` codes pass through unchanged.
    """
    try:
        doc = json.loads(text, parse_float=_exact_decimal)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise InputError(f"not valid JSON: {exc}", code="malformed-json") from None
    if not isinstance(doc, dict):
        raise InputError("the top level must be an object", code="malformed-json")
    unknown = sorted(set(doc) - _TOP_FIELDS)
    if unknown:
        raise InputError(f"unknown field {unknown[0]!r}", code="unknown-field")
    candidates = _string_list(_require(doc, "candidates"), "candidates")
    voters = _typed(_require(doc, "voters"), list, "voters", "a list")
    for index, ranking in enumerate(voters):
        if not isinstance(ranking, list):
            raise InputError(
                f"field 'voters[{index}]' must be a list of strings",
                code="malformed-field",
            )
    k = _require(doc, "k")
    # the profile's permutation check rejects every entry that is not a
    # candidate; only an unhashable one makes it raise TypeError
    try:
        profile = ElectionProfile(tuple(candidates), voters, k)
    except TypeError:
        raise InputError(
            "field 'voters' must hold lists of strings", code="malformed-field"
        ) from None
    labels = _typed(doc.get("labels", {}), dict, "labels", "an object")
    groups = {
        name: _string_list(members, f"labels[{name!r}]")
        for name, members in labels.items()
    }
    entries = _typed(doc.get("constraints", []), list, "constraints", "a list")
    records = [
        _parse_constraint(entry, f"constraints[{position}]")
        for position, entry in enumerate(entries)
    ]
    constraints = ConstraintSet.build(
        groups,
        [r for r in records if isinstance(r, Interval)],
        [r for r in records if isinstance(r, Dominance)],
    )
    rule = _parse_rule(_require(doc, "rule"))
    reference = (
        _string_list(doc["reference"], "reference") if "reference" in doc else ()
    )
    return ElectionInstance(
        profile, constraints, rule, doc.get("order", "score"), tuple(reference)
    )


def _json_number(value: Score) -> int | float:
    """``value`` as a JSON number: an int when integral, else the nearest
    float.  A fraction past the float range, or an int past Python's
    integer digit limit, which ``json.dumps`` cannot write, is refused."""
    try:
        if value.denominator != 1:
            return float(value)
        number = int(value)
        str(number)  # raises past the digit limit
        return number
    except (OverflowError, ValueError):
        raise InputError(
            "the score is too large for the result document", code="invalid-gamma"
        ) from None


def _exact_json_number(index: int, value: Score) -> int | float:
    """A gamma entry as a JSON number that reads back as the same value.

    JSON has no rational type and documents read decimals exactly, so an
    entry without a short decimal form, such as 1/3, cannot be written."""
    number = _json_number(value)
    if Fraction(repr(number)) != value:
        raise InputError(
            f"gamma entry {index} is {value}, which has no exact decimal form",
            code="invalid-gamma",
        )
    return number


def instance_to_document(instance: ElectionInstance) -> dict:
    labeling = instance.constraints.labeling
    constraints: list[dict] = []
    for interval in instance.constraints.intervals:
        constraints.append(
            {
                "type": "interval",
                "label": interval.label,
                "min": interval.lower,
                "max": interval.upper,
            }
        )
    for dominance in instance.constraints.dominances:
        constraints.append(
            {"type": "dominance", "over": dominance.over, "under": dominance.under}
        )
    if isinstance(instance.rule, WeaklySeparableRule):
        gamma = instance.rule.gamma
        rule: dict[str, Any] = {
            "type": "weakly_separable",
            "gamma": gamma if isinstance(gamma, str)
            else [_exact_json_number(i, v) for i, v in enumerate(gamma)],
        }
    else:
        rule = {"type": "stv", "variant": instance.rule.variant}
    doc = {
        "candidates": list(instance.profile.candidates),
        "voters": [list(ranking) for ranking in instance.profile.voters],
        "k": instance.k,
        "labels": {
            name: sorted(labeling.members(name)) for name in labeling.names
        },
        "constraints": constraints,
        "rule": rule,
        "order": instance.order_kind,
    }
    if instance.reference:
        doc["reference"] = list(instance.reference)
    return doc


def serialize_instance(instance: ElectionInstance) -> str:
    return json.dumps(instance_to_document(instance), indent=2) + "\n"


def result_to_document(result: SolveResult) -> dict:
    optimal = result.is_optimal
    return {
        "status": result.status,
        "committee": sorted(result.committee) if optimal else None,
        "score": _json_number(result.score)
        if optimal and result.score is not None
        else None,
        "solver": result.solver,
    }


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:  # cannot be read as text: an io error
        raise OSError(f"{path}: not UTF-8 text: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args.input))
    result = solve_instance(instance, solver=args.solver, budget=args.budget)
    document = result_to_document(result)
    _write_text(args.output, json.dumps(document, indent=2) + "\n")
    if result.reason:
        print(f"note: {result.reason}", file=sys.stderr)
    return 0 if result.is_optimal else 1


def _cmd_check(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args.input))
    names = [part.strip() for part in args.committee.split(",") if part.strip()]
    universe = set(instance.profile.candidates)
    stray = sorted(set(names) - universe)
    if stray:
        raise InputError(f"unknown candidate {stray[0]!r}")
    committee = tuple(sorted(set(names)))
    violations = check_committee(committee, instance.k, instance.constraints)
    if not violations:
        print("ok")
        return 0
    for violation in violations:
        print(violation.describe())
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import generators  # only ``gen`` loads the generator code

    if args.generator == "random":
        rule: WeaklySeparableRule | StvRule
        if args.rule.startswith("stv:"):
            rule = StvRule(args.rule.split(":", 1)[1])
        else:
            rule = WeaklySeparableRule(args.rule)
        instance = generators.gen_random(
            args.candidates,
            args.voters,
            args.committee_size,
            args.labels,
            mode=args.mode,
            structure=args.structure,
            seed=args.seed,
            rule=rule,
            order_kind=args.order,
        )
    else:
        graph = generators.parse_graph(_read_text(args.input))
        if args.generator == "vertex-cover":
            if args.variant == "intervals":
                instance = generators.gen_vertex_cover_intervals(graph, args.cover_size)
            else:
                instance = generators.gen_vertex_cover_dominance(graph, args.cover_size)
        elif args.generator == "clique-sntv":
            instance = generators.gen_clique_sntv(graph, args.clique_size)
        else:
            instance = generators.gen_clique_bloc(graph, args.clique_size)
    _write_text(args.output, serialize_instance(instance))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new ``comsel`` argument parser on every call; ``main`` parses
    with the one ``_parser`` builds once per process."""
    parser = argparse.ArgumentParser(
        prog="comsel",
        description="Exact committee selection under interval and dominance "
        "constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance document")
    solve.add_argument("--input", required=True, help="instance JSON ('-' for stdin)")
    solve.add_argument("--solver", choices=SOLVERS, default="auto")
    solve.add_argument("--output", help="result JSON path (default stdout)")
    solve.add_argument(
        "--budget",
        type=int,
        default=OracleBudget.max_committee_enumeration,
        help="max committees the oracle may enumerate (default %(default)s)",
    )

    chk = sub.add_parser("check", help="validate a committee against an instance")
    chk.add_argument("--input", required=True, help="instance JSON ('-' for stdin)")
    chk.add_argument(
        "--committee", required=True, help="comma-separated candidate names"
    )

    gen = sub.add_parser("gen", help="emit a generated instance document")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    cover = gen_sub.add_parser("vertex-cover")
    cover.add_argument("--input", required=True, help="edge-list graph file")
    cover.add_argument("--cover-size", type=int, required=True)
    cover.add_argument(
        "--variant", choices=("intervals", "dominance"), default="intervals"
    )
    cover.add_argument("--output")

    for name in ("clique-sntv", "clique-bloc"):
        clique = gen_sub.add_parser(name)
        clique.add_argument("--input", required=True, help="edge-list graph file")
        clique.add_argument("--clique-size", type=int, required=True)
        clique.add_argument("--output")

    rnd = gen_sub.add_parser("random")
    rnd.add_argument("--candidates", type=int, required=True)
    rnd.add_argument("--voters", type=int, required=True)
    rnd.add_argument("--committee-size", type=int, required=True)
    rnd.add_argument("--labels", type=int, default=0)
    rnd.add_argument("--mode", choices=MODES, default="disjoint")
    rnd.add_argument("--structure", choices=STRUCTURES, default="tree_like")
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument(
        "--rule",
        default="borda",
        help="scoring preset, or stv:simple / stv:droop_gregory",
    )
    rnd.add_argument("--order", choices=ORDER_KINDS)
    rnd.add_argument("--output")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Private, so no caller can change the shared parser; parsing leaves
    # it unchanged.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_gen(args)
    except ComselError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not exit 1, which would read as "infeasible"
        import traceback

        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
