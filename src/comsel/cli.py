"""Command-line interface: the ``solve``, ``check`` and ``gen`` commands.

Exit codes: 0 for an optimal committee or a passing check, 1 for an
infeasible instance or a failing check, 2 for any input, contract, budget,
I/O or internal problem.  Errors carry a short machine-readable code
printed as ``error[code]: message`` on stderr.  Diagnostics go to stderr
only; when it cannot be written, the exit status alone reports.  Usage
errors (a missing or ill-typed option) are argparse's: a ``usage:`` line
and exit status 2, raised as ``SystemExit(2)`` when ``main`` is called
in-process.

``comsel.document`` reads each ``--input``; its document functions stay
bound here for perfbench, which reaches them through this module.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

# first: compiled (with no cached bytecode) while the heap is still small;
# compiled after the solvers load, it raised a run's peak RSS by 0.2 MB
from .document import (
    instance_to_document,
    parse_instance,
    read_instance,
    read_text,
    result_to_document,
    serialize_instance,
)
from .bruteforce import OracleBudget
from .constraints import check_committee
from .errors import ComselError, InputError
from .instances import (
    MODES,
    ORDER_KINDS,
    STRUCTURES,
    StvRule,
    WeaklySeparableRule,
)
from .solve import SOLVERS, solve_instance


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        if sys.stdout is None:  # closed when the process started
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _diagnose(text: str) -> None:
    """``text`` on stderr; dropped, as argparse drops its own messages, when
    stderr is closed or cannot be written, so the exit status still answers."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except OSError:
        pass


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.input)
    result = solve_instance(instance, solver=args.solver, budget=args.budget)
    document = result_to_document(result)
    _write_text(args.output, json.dumps(document, indent=2) + "\n")
    if result.reason:
        _diagnose(f"note: {result.reason}\n")
    return 0 if result.is_optimal else 1


def _cmd_check(args: argparse.Namespace) -> int:
    instance = read_instance(args.input)
    names = [part.strip() for part in args.committee.split(",") if part.strip()]
    stray = sorted(set(names) - set(instance.profile.candidates))
    if stray:
        raise InputError(f"unknown candidate {stray[0]!r}")
    violations = check_committee(names, instance.k, instance.constraints)
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
        graph = generators.parse_graph(read_text(args.input))
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
        _diagnose(f"error[{exc.code}]: {exc}\n")
        return 2
    except OSError as exc:
        _diagnose(f"error[io]: {exc}\n")
        return 2
    except Exception as exc:
        # a crash must not exit 1, which would read as "infeasible"
        import traceback

        _diagnose(f"error[internal]: {type(exc).__name__}: {exc}\n"
                  + traceback.format_exc())
        return 2


if __name__ == "__main__":
    sys.exit(main())
