"""Float simplex that looks for row multipliers; it decides nothing itself.

The LP is the region search's relaxation: one column per region, whose
count lies in ``[low, high]`` and earns the region's gains, best first, so
the objective is concave and piecewise linear with a breakpoint at every
integer.  Each row ``low <= coeffs·x <= high`` gets a slack column
``s = coeffs·x`` bounded by the row's bounds.  A bounded-variable primal
simplex keeps every nonbasic column on a breakpoint and every basic column
inside one linear piece; a step that brings the entering column to its
next breakpoint before any basic column reaches the end of its piece moves
it there without a pivot.

Phase 1 ignores the gains and charges each slack the distance by which it
lies outside its row's bounds; phase 2 keeps the slacks inside them and
earns the gains.  The answer is the simplex multipliers: the optimal duals
when the LP is feasible, and a phase-1 certificate of infeasibility when
it is not.  The caller rounds them to ints and checks every bound and
every infeasibility claim exactly, so a float error here can only make a
bound weaker, never wrong.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Sequence

_TOL = 1e-9
_BLAND_AFTER = 8  # degenerate steps in a row before the anti-cycling rule

Piece = tuple[float, float, float]  # start, end and slope of a linear stretch


def row_multipliers(
    rows: Sequence[tuple[Sequence[int], int, int | None]],
    lows: Sequence[int],
    highs: Sequence[int],
    start: Sequence[int],
    gains: Sequence[Sequence[float]],
) -> tuple[bool, list[float]] | None:
    """``(feasible, π)`` for the LP over ``rows``, each ``(coeffs, low,
    high)`` with ``high`` None when the row has no upper bound, and one
    column per count with bounds ``lows``/``highs``, started at the
    integer counts ``start``.  Column r earns ``gains[r][n]`` for its
    (n+1)-th unit.  None when the iteration cap is reached first or the
    arithmetic breaks down.

    ``π`` is signed so that, for any counts in the bounds and any row sums
    ``s`` within the rows' bounds, ``Σ gains(x) <= Σ_i π_i·s_i +
    Σ_r (gains_r(x_r) - (π·A)_r·x_r)``: a positive ``π_i`` prices the
    row's upper bound and a negative one its lower bound."""
    simplex = _Simplex(rows, lows, highs, start, gains)
    if not simplex.optimise():
        return None
    shortfall = sum(
        max(low - v, v - high, 0.0)
        for low, high, v in zip(
            simplex.row_lows, simplex.row_highs, simplex.value[simplex.width :]
        )
    )
    if shortfall <= 1e-7:
        simplex.start_phase_2()
        if not simplex.optimise():
            return None
    duals = simplex.duals()
    if not all(map(isfinite, duals)):
        return None
    return shortfall <= 1e-7, duals


class _Simplex:
    def __init__(self, rows, lows, highs, start, gains):
        width = len(lows)
        height = len(rows)
        self.width = width
        self.lows = lows
        self.highs = highs
        self.gains = gains
        self.row_lows = [low for _, low, _ in rows]
        self.row_highs = [inf if high is None else high for _, _, high in rows]
        # B⁻¹·[A | -I], with the slacks as the first basis, B = -I
        self.tab = [
            [-float(c) for c in coeffs] + [float(i == j) for j in range(height)]
            for i, (coeffs, _, _) in enumerate(rows)
        ]
        self.value = [float(v) for v in start] + [
            float(sum(c * v for c, v in zip(coeffs, start))) for coeffs, _, _ in rows
        ]
        self.basic = list(range(width, width + height))
        self.in_basis = [False] * width + [True] * height
        self.phase = 1
        self.pieces = [self._basic_piece(j) for j in self.basic]
        self.z: list[float] = []

    def start_phase_2(self) -> None:
        self.phase = 2
        self.pieces = [self._basic_piece(j) for j in self.basic]

    def duals(self) -> list[float]:
        # the slack column of row i is -e_i, so its price is -π_i
        return [-z for z in self.z[self.width :]]

    def _piece(self, j: int, up: bool) -> Piece | None:
        """The piece a nonbasic column enters moving up or down from its
        breakpoint, or None when it may not move that way."""
        v = self.value[j]
        if j < self.width:
            low, high = self.lows[j], self.highs[j]
            if up:
                if v >= high:
                    return None
                if self.phase == 1:
                    return (v, high, 0.0)
                return (v, v + 1, self.gains[j][int(v)])
            if v <= low:
                return None
            if self.phase == 1:
                return (low, v, 0.0)
            return (v - 1, v, self.gains[j][int(v) - 1])
        low, high = self.row_lows[j - self.width], self.row_highs[j - self.width]
        if self.phase == 2:
            if up:
                return (v, high, 0.0) if v < high else None
            return (low, v, 0.0) if v > low else None
        if up:
            if v < low:
                return (v, low, 1.0)
            return (v, high, 0.0) if v < high else (v, inf, -1.0)
        if v > high:
            return (high, v, -1.0)
        return (low, v, 0.0) if v > low else (-inf, v, 1.0)

    def _basic_piece(self, j: int) -> Piece:
        """The piece that holds a basic column's value as a phase starts."""
        v = self.value[j]
        if j < self.width:
            # only slacks start phase 1 in the basis, so this is phase 2
            low, high = self.lows[j], self.highs[j]
            first = min(max(int(v), low), high - 1)
            return (first, first + 1, self.gains[j][first])
        low, high = self.row_lows[j - self.width], self.row_highs[j - self.width]
        if self.phase == 2 or low <= v <= high:
            return (low, high, 0.0)
        return (-inf, low, 1.0) if v < low else (high, inf, -1.0)

    def _slopes(self, j: int) -> tuple[float | None, float | None]:
        """The slopes of the pieces above and below a nonbasic column."""
        up, down = self._piece(j, True), self._piece(j, False)
        return (None if up is None else up[2], None if down is None else down[2])

    def optimise(self) -> bool:
        """Run the current phase to optimality; False at the iteration cap."""
        tab, value, basic, pieces = self.tab, self.value, self.basic, self.pieces
        in_basis = self.in_basis
        columns = range(len(value))
        costs = [piece[2] for piece in pieces]
        self.z = z = [
            sum(cost * row[j] for cost, row in zip(costs, tab) if cost)
            for j in columns
        ]
        slopes = [None if in_basis[j] else self._slopes(j) for j in columns]
        degenerate = 0
        for _ in range(50 * len(value)):
            # pricing: the steepest gain, or the first one when cycling
            bland = degenerate > _BLAND_AFTER
            gain, enter, up = _TOL, -1, True
            for j in columns:
                pair = slopes[j]
                if pair is None:
                    continue
                above, below = pair
                if above is not None and above - z[j] > gain:
                    gain, enter, up = above - z[j], j, True
                elif below is not None and z[j] - below > gain:
                    gain, enter, up = z[j] - below, j, False
                if bland and enter >= 0:
                    break
            if enter < 0:
                return True
            piece = self._piece(enter, up)
            # ratio test: the entering column moves by t in its direction
            # and each basic value by -sign·t·α
            sign = 1.0 if up else -1.0
            limit = piece[1] - piece[0]
            leave, hit = -1, 0.0
            for i, row in enumerate(tab):
                rate = -sign * row[enter]
                if rate > _TOL:
                    end = pieces[i][1]
                    room = max(end - value[basic[i]], 0.0) / rate
                elif rate < -_TOL:
                    end = pieces[i][0]
                    room = max(value[basic[i]] - end, 0.0) / -rate
                else:
                    continue
                if room < limit - _TOL or (
                    room < limit + _TOL
                    and leave >= 0
                    and (
                        basic[i] < basic[leave]
                        if bland
                        else abs(rate) > abs(tab[leave][enter])
                    )
                ):
                    limit, leave, hit = room, i, end
            if limit == inf:
                return False  # unbounded: bounded counts never allow it
            degenerate = degenerate + 1 if limit <= _TOL else 0
            for i, row in enumerate(tab):
                if row[enter]:
                    value[basic[i]] -= sign * limit * row[enter]
            if leave < 0:
                # the entering column reaches its next breakpoint
                value[enter] = piece[1] if up else piece[0]
                slopes[enter] = self._slopes(enter)
                continue
            value[enter] += sign * limit
            out = basic[leave]
            value[out] = hit
            pivot_row = tab[leave]
            pivot = pivot_row[enter]
            pivot_row[:] = [a / pivot for a in pivot_row]
            for i, row in enumerate(tab):
                factor = row[enter]
                if i != leave and factor:
                    row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
            basic[leave] = enter
            in_basis[enter] = True
            in_basis[out] = False
            slopes[enter] = None
            slopes[out] = self._slopes(out)
            pieces[leave] = piece
            factor = piece[2] - z[enter]
            z[:] = [a + factor * b for a, b in zip(z, pivot_row)]
        return False
