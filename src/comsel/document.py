"""The JSON instance document: reading and writing it, and the result document.

Instance documents are read by ``parse_instance``, which decodes the top
level one member at a time with json's own scanner, feeding each ranking
as it is read to ``RankingCoder``, the one builder of a profile's code
string.  An ``_Input``, an open file, is read in fixed-size chunks, so its
whole text is never held; a ``str`` is the whole text.  A faulty document
is read again whole, so that its error is json's: ``read_instance`` passes
an ``_Input`` only for a file that can seek back to its start, and reads
any other input whole.  ``instance_to_document`` and
``serialize_instance`` write an instance back, and ``result_to_document``
writes a solve's result.  Only this module knows the format, and it loads
no solver: a library caller reads and writes documents without them.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import Any, TextIO

from .constraints import ConstraintSet, Dominance, Interval
from .elections import ElectionProfile, RankingCoder, Score
from .errors import InputError
from .instances import ElectionInstance, Rule, StvRule, WeaklySeparableRule
from .result import SolveResult

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


_DECODER = json.JSONDecoder(parse_float=_exact_decimal)
_SPACE = " \t\n\r"  # JSON's whitespace
_skip_space = json.decoder.WHITESPACE.match


def _skip(text: str, end: int) -> int:
    """``end`` moved past any whitespace; the regex runs only when some
    follows, since documents written compactly have none."""
    return _skip_space(text, end).end() if text[end:end + 1] in _SPACE else end


_CHUNK = 1 << 16  # characters per read of an input file


class _Input:
    """An open input, a text stream or a byte stream read as UTF-8:
    ``len()`` is its size in bytes, and ``read(n)`` gives its next ``n``
    characters, or the text of its next ``n`` bytes."""

    def __init__(self, path: str, handle: TextIO) -> None:
        self.path, self.handle = path, handle

    def __len__(self) -> int:
        return os.fstat(self.handle.fileno()).st_size

    def read(self, size: int = -1) -> str:
        try:
            text = self.handle.read(size)
            return text if isinstance(text, str) else text.decode("utf-8")
        except UnicodeDecodeError as exc:  # cannot be read as text: an io error
            raise OSError(f"{self.path}: not UTF-8 text: {exc}") from None


def _decode(source: str | _Input) -> Any:
    """``json.loads(text, parse_float=_exact_decimal)``, except that a
    ``voters`` read ranking by ranking is a ``RankingCoder`` over its
    ``candidates`` that accepted every ranking.

    The text is scanned in a window, all of a ``str`` or an ``_Input``'s
    chunks.  A top-level object with distinct keys is read one member at a
    time by json's own scanner, a ``voters`` array after a ``candidates``
    list one ranking at a time, each fed to the coder as it is read.  What
    runs off the window's edge, a number ending on it included, is read
    again after a refill, which comes early when less than a chunk lies
    ahead of a member's value, or less than a chunk and the last ranking's
    length ahead of a ranking.  A fault once all the text is in, or a
    refused ranking, sends the whole text to ``json.loads``, whose errors
    name it."""
    scan = _DECODER.scan_once
    # an _Input's window starts empty: its first chunk comes by a refill
    text, read = ("", source.read) if isinstance(source, _Input) else (source, None)
    doc: dict[str, Any] = {}
    coder = None  # the voters array's coder while it is read
    mark = -1  # where the member or ranking being read starts; -1: the "{"
    while True:
        end = mark
        try:
            if end < 0:
                end = _skip(text, 0)
                if text[end] != "{":
                    raise ValueError("not an object")
                mark = end = end + 1
            while True:
                if coder is not None:
                    while True:
                        # less than the last ranking's length, and a chunk, ahead
                        if read is not None and span > len(text) - end < _CHUNK:
                            raise IndexError("the ranking may run past the edge")
                        if text[end] in _SPACE:  # _skip inline, once per ranking
                            end = _skip_space(text, end).end()
                        if span:  # a separator before all but the first (span 0)
                            if text[end] == "]":
                                break
                            if text[end] != ",":
                                raise ValueError("not an array")
                            end += 1
                            if text[end] in _SPACE:
                                end = _skip_space(text, end).end()
                        ranking, end = scan(text, end)
                        try:
                            accepted = type(ranking) is list and coder.add(ranking)
                        except TypeError:  # an unhashable entry
                            accepted = False
                        if not accepted:  # json.loads decodes the whole text
                            read = None
                            raise ValueError("a refused ranking")
                        span, mark = end - mark, end
                    doc["voters"], coder = coder, None
                    mark = end = end + 1
                end = _skip(text, end)
                if text[end] == "}":
                    if _skip(text, end + 1) == len(text) and read is None:
                        return doc
                    raise ValueError("extra data, or text still to read")
                if doc:
                    if text[end] != ",":
                        raise ValueError("not an object")
                    end = _skip(text, end + 1)
                if text[end] != '"':
                    raise ValueError("not a key")
                key, end = json.decoder.scanstring(text, end + 1)
                if key in doc:
                    raise ValueError("a repeated key")  # json.loads keeps the last
                end = _skip(text, end)
                if text[end] != ":":
                    raise ValueError("not a member")
                end = _skip(text, end + 1)
                candidates = doc.get("candidates")
                if key == "voters" and text[end] == "[" and isinstance(candidates, list):
                    coder, span = RankingCoder(candidates), 0
                    mark = end = end + 1
                    continue
                if read is not None and len(text) - end < _CHUNK:
                    raise IndexError("the value may run past the edge")
                value, end = scan(text, end)
                if end == len(text) and read is not None:
                    raise IndexError("a number may go on past the edge")
                doc[key] = value
                mark = end
        # a fault in the text (StopIteration: no value where one must be;
        # IndexError: the window ends early), an unhashable candidate or
        # bytes (TypeError), which a refill or json.loads settles
        except (ValueError, StopIteration, IndexError, RecursionError, TypeError):
            if read is None:
                break
            # keep the item being read and read at least as much again, so a
            # value longer than the window doubles it
            keep = text[max(mark, 0):]
            size = max(_CHUNK, len(keep))
            more = read(size)
            text, read = keep + more, read if len(more) == size else None
            mark = min(mark, 0)
    if isinstance(source, _Input):  # the whole text, read again
        source.handle.seek(0)
        source = source.read()
    return json.loads(source, parse_float=_exact_decimal)


def parse_instance(text: str | _Input) -> ElectionInstance:
    """Read a JSON instance document, naming the first violation.

    The parser checks the document's shape only: field types, required
    fields and exact field sets.  Decimal numbers are read as exact
    Fractions (``0.1`` is 1/10, not the nearest float); a number past
    Python's integer digit limit, or nesting past its recursion limit, is
    malformed JSON.  Every semantic check is made by the model constructors,
    whose ``InputError`` codes pass through unchanged.

    Each ranking of ``voters`` is decoded and fed to a ``RankingCoder`` as
    it is read when ``candidates`` comes first, as every writer in this
    package puts it; the profile keeps the coder's string without a second
    check.  Otherwise ``voters`` is decoded whole and the profile checks it.
    Either way a fault is named by the same checks, in the same order, on
    the same decoded values.

    ``text`` is the document's text, or an ``_Input``: ``read_instance``
    reads a file that can seek in chunks, so the text is never held whole
    beside the profile (it reads stdin and other inputs whole).  A
    document with a fault is read again whole for ``json.loads``, so its
    error is json's either way.
    """
    try:
        doc = _decode(text)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise InputError(f"not valid JSON: {exc}", code="malformed-json") from None
    if not isinstance(doc, dict):
        raise InputError("the top level must be an object", code="malformed-json")
    unknown = sorted(set(doc) - _TOP_FIELDS)
    if unknown:
        raise InputError(f"unknown field {unknown[0]!r}", code="unknown-field")
    candidates = _string_list(_require(doc, "candidates"), "candidates")
    voters = _require(doc, "voters")
    if not isinstance(voters, RankingCoder):
        _typed(voters, list, "voters", "a list")
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
    # members become the candidates' own objects, freeing the decoded ones
    own = {c: c for c in candidates}
    for name, members in labels.items():
        labels[name] = [
            own.get(c, c) for c in _string_list(members, f"labels[{name!r}]")
        ]
    entries = _typed(doc.get("constraints", []), list, "constraints", "a list")
    records = [
        _parse_constraint(entry, f"constraints[{position}]")
        for position, entry in enumerate(entries)
    ]
    constraints = ConstraintSet.build(
        labels,
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


def read_text(path: str) -> str:
    """The whole text of the input at ``path`` ('-' for stdin), UTF-8 either
    way: stdin's bytes are decoded as UTF-8, not in the interpreter's stdin
    encoding; only a text stream with no bytes below it is read as it is."""
    if path == "-":
        if sys.stdin is None:  # closed when the process started
            raise OSError("stdin is closed")
        return _Input(path, getattr(sys.stdin, "buffer", sys.stdin)).read()
    with open(path, encoding="utf-8") as handle:
        return _Input(path, handle).read()


def read_instance(path: str) -> ElectionInstance:
    """The instance at ``path``: a file that can seek back, to re-read a
    faulty document, is read in chunks; stdin and any other input whole."""
    if path == "-":
        return parse_instance(read_text(path))
    with open(path, encoding="utf-8") as handle:
        source = _Input(path, handle)
        return parse_instance(source if handle.seekable() else source.read())


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
    constraints = [
        {"type": "interval", "label": i.label, "min": i.lower, "max": i.upper}
        for i in instance.constraints.intervals
    ] + [
        {"type": "dominance", "over": d.over, "under": d.under}
        for d in instance.constraints.dominances
    ]
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
    """The document indented, each ranking on one line: json's C encoder
    writes the rankings, as it never does under an indent."""
    document = instance_to_document(instance)
    rankings = ",\n    ".join(map(json.dumps, document["voters"]))
    # a placeholder: JSON strings escape their quotes, so only the key matches
    document["voters"] = None
    text = json.dumps(document, indent=2)
    voters = f'"voters": [\n    {rankings}\n  ]'
    return text.replace('"voters": null', voters, 1) + "\n"


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
