"""Spans around comsel's layer functions, recorded from outside the package.

``Tracer.install`` replaces each target function by a wrapper everywhere
it is bound in a comsel module (``comsel.solve.solve_tree`` as well as
``comsel.treedp.solve_tree``), so calls between modules are caught too.
Each call leaves one span: name, start, end, parent span and solve id.
Spans stay in memory until ``write_spans``.  Functions called once per
committee or per key (``key_of``, ``join``) are deliberately not wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute); the layer is the module's short name
TARGETS = (
    ("cli", "comsel.cli", "parse_instance"),
    ("solve", "comsel.solve", "choose_solver"),
    ("solve", "comsel.solve", "build_order"),
    ("solve", "comsel.solve", "solve_instance"),
    ("elections", "comsel.elections", "score_all"),
    ("stv", "comsel.stv", "stv_ranking"),
    ("constraints", "comsel.constraints", "transitive_closure"),
    ("constraints", "comsel.constraints", "DominanceForest.build"),
    ("constraints", "comsel.constraints", "check_committee"),
    ("orders", "comsel.orders", "best_singletons"),
    ("treedp", "comsel.treedp", "preprocess_intervals"),
    ("treedp", "comsel.treedp", "solve_tree"),
    ("regions", "comsel.regions", "solve_region_ip"),
    ("bruteforce", "comsel.bruteforce", "solve_bruteforce"),
)
LAYERS = ("cli", "solve", "elections", "stv", "constraints", "orders",
          "treedp", "regions", "bruteforce")
ROOT = "cli.main"

# solver counters copied from SolveResult.stats
_STATS = {
    "treedp.solve_tree": ("joins", "cells", "tables"),
    "regions.solve_region_ip": ("regions", "nodes", "leaves"),
    "bruteforce.solve_bruteforce": ("examined", "feasible"),
}

# span fields
NAME, START, END, PARENT, SOLVE, ERROR = range(6)


def _duration(span: list) -> float:
    # a span left open by a deadline never got its end time
    return max(0.0, span[END] - span[START])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.solve_id = -1
        self.last_parsed = None
        self._stack: list[int] = []
        self._blamed: BaseException | None = None
        self.blamed_layer: dict[int, str] = {}

    # -- recording

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.solve_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                if exc is not self._blamed:
                    # the innermost span an exception escapes takes the blame
                    self._blamed = exc
                    span[ERROR] = type(exc).__name__
                    self.blamed_layer[self.solve_id] = name.split(".")[0]
                raise
            span[END] = clock()
            stack.pop()
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "cli.parse_instance":
            # documents are ASCII, so characters are bytes
            counts["cli.bytes_in"] += len(args[0])
            self.last_parsed = result
        elif name == "elections.score_all":
            profile = args[0]
            counts["elections.ballot_positions"] += (
                profile.num_voters * profile.num_candidates)
        elif name == "solve.choose_solver":
            counts["solve.routed_" + result] += 1
        elif name in _STATS and result.stats:
            layer = name.split(".")[0]
            for key in _STATS[name]:
                counts[f"{layer}.{key}"] += result.stats.get(key, 0)

    def install(self) -> None:
        """Wrap every target wherever a comsel module binds it."""
        import comsel.cli  # noqa: F401  loads every module that binds a target

        for layer, module_name, attr in TARGETS:
            name = f"{layer}.{attr.split('.')[-1]}"
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth].__func__
                cls_attr = classmethod(self._wrap(name, original))
                setattr(cls, meth, cls_attr)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "comsel" or mod_name.startswith("comsel."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def root(self, solve_id: int, fn, *args):
        """Run one solve under the root span; the CLI layer owns it."""
        self.solve_id = solve_id
        self.last_parsed = None
        # a deadline between two statements of a wrapper can leave a span
        # open; the next solve starts from an empty stack
        self._stack.clear()
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self._blamed = None  # drop the traceback and what it holds

    # -- aggregation

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of direct child spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += _duration(span)
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span[NAME]] += _duration(span) - child[index]
        return out

    def verify_seconds(self) -> float:
        """Time of the check_committee calls that solve_instance makes."""
        return sum(
            _duration(span)
            for span in self.spans
            if span[NAME] == "constraints.check_committee"
            and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == "solve.solve_instance"
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "solve": span[SOLVE], "error": span[ERROR],
                }) + "\n")
