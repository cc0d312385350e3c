"""Self-contained problem instances: profile, constraints, rule, order.

``WeaklySeparableRule`` is the one positional rule type: its constructor
checks a preset name or coerces each explicit entry, and ``vector(profile)``
sizes a preset, or checks an explicit vector's length, for a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import ConstraintSet
from .elections import ElectionProfile, Score, as_score
from .errors import InputError
from .stv import VARIANTS

ORDER_KINDS = ("score", "leximax", "leximin")
# the label modes and dominance structures ``gen_random`` draws from
MODES = ("disjoint", "overlapping")
STRUCTURES = ("tree_like", "arbitrary")

# each preset's vector for m candidates and committee size k, 0 <= k <= m
_PRESETS = {
    "sntv": lambda m, k: (1,) + (0,) * (m - 1),
    "borda": lambda m, k: tuple(range(m - 1, -1, -1)),
    "bloc": lambda m, k: (1,) * k + (0,) * (m - k),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class WeaklySeparableRule:
    """Positional scoring rule named by preset or given as an explicit vector.

    Entry 0 of a vector is the value of a voter's top position.  An
    explicit vector must have one entry per candidate; presets are sized
    when the profile is known.
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

    def vector(self, profile: ElectionProfile) -> tuple[Score, ...]:
        """The vector sized for the profile: one entry per candidate."""
        m = profile.num_candidates
        if isinstance(self.gamma, str):
            return _PRESETS[self.gamma](m, profile.k)
        if len(self.gamma) != m:
            raise InputError(
                f"scoring vector has {len(self.gamma)} entries for {m} candidates",
                code="invalid-gamma",
            )
        return self.gamma


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
