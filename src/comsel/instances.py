"""Self-contained problem instances: profile, constraints, rule, order."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .constraints import ConstraintSet
from .elections import (
    PRESET_NAMES,
    ElectionProfile,
    Score,
    ScoringFunction,
    as_score,
)
from .errors import InputError
from .stv import VARIANTS

ORDER_KINDS = ("score", "leximax", "leximin")


@dataclass(frozen=True)
class WeaklySeparableRule:
    """Positional scoring rule named by preset or given as an explicit vector.

    An explicit vector must have one entry per candidate; presets are sized
    when the instance is known.
    """

    gamma: str | tuple[Score, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, (tuple, list)):
            if self.gamma not in PRESET_NAMES:
                raise InputError(
                    f"unknown scoring preset {self.gamma!r}; expected one of "
                    f"{', '.join(PRESET_NAMES)} or a list of numbers",
                    code="invalid-gamma",
                )
            return
        values = tuple(as_score(v) for v in self.gamma)
        if not values:
            raise InputError(
                "an explicit scoring vector needs at least one entry",
                code="invalid-gamma",
            )
        object.__setattr__(self, "gamma", values)

    def scoring_for(self, num_candidates: int, k: int) -> ScoringFunction:
        if isinstance(self.gamma, str):
            return ScoringFunction.preset(self.gamma, num_candidates, k)
        if len(self.gamma) != num_candidates:
            raise InputError(
                f"scoring vector has {len(self.gamma)} entries for "
                f"{num_candidates} candidates",
                code="invalid-gamma",
            )
        return ScoringFunction(self.gamma)


@dataclass(frozen=True)
class StvRule:
    variant: str = "simple"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InputError(
                f"unknown stv variant {self.variant!r}; "
                f"expected one of {', '.join(VARIANTS)}",
                code="invalid-rule",
            )


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
        # building the scoring function sizes the preset and checks the
        # explicit vector's length now
        _ = self.scoring
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

    @cached_property
    def scoring(self) -> ScoringFunction | None:
        """The rule's scoring function sized for this profile, built once;
        None for ranking-only rules."""
        if not isinstance(self.rule, WeaklySeparableRule):
            return None
        return self.rule.scoring_for(self.profile.num_candidates, self.profile.k)
