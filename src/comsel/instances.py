"""Self-contained problem instances: profile, constraints, rule, order.

Each rule type lives with its count: ``WeaklySeparableRule`` in
``comsel.elections`` and ``StvRule`` in ``comsel.stv``.  ``Rule`` is
either; ``ElectionInstance`` checks the parts against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import ConstraintSet
from .elections import ElectionProfile, WeaklySeparableRule
from .errors import InputError
from .stv import StvRule

ORDER_KINDS = ("score", "leximax", "leximin")
# the label modes and dominance structures ``gen_random`` draws from
MODES = ("disjoint", "overlapping")
STRUCTURES = ("tree_like", "arbitrary")

Rule = WeaklySeparableRule | StvRule


@dataclass(frozen=True)
class ElectionInstance:
    """Everything a solver needs, validated as a unit.

    The optional reference committee is carried by hardness-reduction
    instances; when present it has exactly k distinct members.
    """

    profile: ElectionProfile
    constraints: ConstraintSet
    rule: Rule
    order_kind: str = "score"
    reference: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.rule, (WeaklySeparableRule, StvRule)):
            raise InputError(
                f"unsupported rule object {self.rule!r}", code="invalid-rule"
            )
        if self.order_kind not in ORDER_KINDS:
            raise InputError(
                f"unknown order {self.order_kind!r}; "
                f"expected one of {', '.join(ORDER_KINDS)}",
                code="invalid-order",
            )
        if self.order_kind == "score" and isinstance(self.rule, StvRule):
            raise InputError(
                "the score order needs per-candidate scores, which an stv "
                "rule does not define; use leximax or leximin",
                code="order-rule-mismatch",
            )
        self.constraints.labeling.validate_against(self.profile.candidates)
        if isinstance(self.rule, WeaklySeparableRule):
            self.rule.vector(self.profile)  # checks an explicit length now
        object.__setattr__(self, "reference", tuple(self.reference))
        if self.reference:
            if len(set(self.reference)) != len(self.reference):
                raise InputError(
                    "reference committee members must be distinct",
                    code="invalid-reference",
                )
            universe = set(self.profile.candidates)
            stray = sorted(set(self.reference) - universe)
            if stray:
                raise InputError(
                    f"reference committee names unknown candidates: "
                    f"{', '.join(stray)}",
                    code="invalid-reference",
                )
            if len(self.reference) != self.profile.k:
                raise InputError(
                    f"reference committee has {len(self.reference)} members, "
                    f"expected {self.profile.k}",
                    code="invalid-reference",
                )

    @property
    def k(self) -> int:
        return self.profile.k
