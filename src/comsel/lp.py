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

A cold solve starts from the slack basis.  Phase 1 ignores the gains and
charges each slack the distance by which it lies outside its row's bounds;
phase 2 keeps the slacks inside them and earns the gains.  The answer is
the simplex multipliers: the optimal duals when the LP is feasible, and a
phase-1 certificate of infeasibility when it is not.

A feasible solve also returns its final state, from which the LP over any
smaller box restarts warm.  Every column stays in the tableau, so the
state fits every sub-box: a fixed column is nonbasic at ``low == high``.
The new bounds clamp each nonbasic column, which keeps the duals feasible
because the gains are concave, and a bounded-variable dual simplex then
pivots out each basic column that lies outside its piece or its bounds,
or moves it on to its next piece when that comes first.  A row that no
pivot can repair is itself the certificate of infeasibility.

The caller rounds the multipliers to ints and checks every bound and every
infeasibility claim exactly, so a float error here can only make a bound
weaker, never wrong.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Sequence

_TOL = 1e-9
_BLAND_AFTER = 8  # degenerate steps in a row before the anti-cycling rule

Piece = tuple[float, float, float]  # start, end and slope of a linear stretch
Solved = tuple[bool, list[float], "_Simplex | None"]


def row_multipliers(
    rows: Sequence[tuple[Sequence[int], int, int | None]],
    lows: Sequence[int],
    highs: Sequence[int],
    start: Sequence[int],
    gains: Sequence[Sequence[float]],
) -> Solved | None:
    """``(feasible, π, state)`` for the LP over ``rows``, each ``(coeffs,
    low, high)`` with ``high`` None when the row has no upper bound, and
    one column per count with bounds ``lows``/``highs``, started cold at
    the integer counts ``start``.  Column r earns ``gains[r][n]`` for its
    (n+1)-th unit.  ``state`` is the final simplex when the LP is feasible,
    for ``warm_multipliers``, and None otherwise.  None when the iteration
    cap is reached first or the arithmetic breaks down.

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
    if shortfall > 1e-7:
        return _checked(False, simplex.duals(), None)
    simplex.start_phase(2)
    if not simplex.optimise():
        return None
    return _checked(True, simplex.duals(), simplex)


def warm_multipliers(
    parent: _Simplex, lows: Sequence[int], highs: Sequence[int]
) -> Solved | None:
    """``row_multipliers`` over a box inside the one ``parent`` solved,
    restarted from its final state, which is left as it was."""
    simplex = parent.copy()
    simplex.restrict(lows, highs)
    broken = simplex.dual()
    if broken is not None and broken >= 0:
        return _checked(False, simplex.certificate(broken), None)
    if broken is None or not simplex.optimise():
        return None
    return _checked(True, simplex.duals(), simplex)


def _checked(feasible: bool, duals: list[float], state) -> Solved | None:
    return (feasible, duals, state) if all(map(isfinite, duals)) else None


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
        self.start_phase(1)

    def copy(self) -> _Simplex:
        twin = object.__new__(_Simplex)
        twin.__dict__.update(self.__dict__)
        twin.tab = [row.copy() for row in self.tab]
        for name in ("value", "basic", "in_basis", "pieces", "z", "slopes"):
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def start_phase(self, phase: int) -> None:
        """Set each basic column's piece, the prices ``z = c_B·B⁻¹·[A | -I]``
        and each nonbasic column's slopes, as a cold phase starts."""
        self.phase = phase
        self.pieces = [self._basic_piece(j) for j in self.basic]
        z = [0.0] * len(self.value)
        for (_, _, cost), row in zip(self.pieces, self.tab):
            if cost:
                z = [a + cost * b for a, b in zip(z, row)]
        self.z = z
        self.slopes = [
            None if basic else self._slopes(j) for j, basic in enumerate(self.in_basis)
        ]

    def duals(self) -> list[float]:
        # the slack column of row i is -e_i, so its price is -π_i
        return [-z for z in self.z[self.width :]]

    def certificate(self, i: int) -> list[float]:
        """Row multipliers proving the box empty from tableau row ``i``,
        whose basic column no move of the nonbasic ones brings back into
        its bounds: the row reads ``x_basic = -Σ α_j·x_j``."""
        sign = 1.0 if self.value[self.basic[i]] > self.pieces[i][1] else -1.0
        return [sign * a for a in self.tab[i][self.width :]]

    def _piece(self, j: int, up: bool, v: float) -> Piece | None:
        """The piece column ``j`` enters moving up or down from the
        breakpoint ``v``, or None when it may not move that way."""
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
        """The piece that holds a basic column's value as a cold phase
        starts."""
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
        v = self.value[j]
        up, down = self._piece(j, True, v), self._piece(j, False, v)
        return (None if up is None else up[2], None if down is None else down[2])

    def restrict(self, lows: Sequence[int], highs: Sequence[int]) -> None:
        """Narrow the column bounds to a box inside the current one: each
        nonbasic column moves into its new bounds, and a basic column whose
        piece lies outside them gets the empty piece at the nearer bound,
        so that the dual simplex moves it on or out."""
        tab, value, basic, pieces = self.tab, self.value, self.basic, self.pieces
        old_lows, old_highs = self.lows, self.highs
        self.lows, self.highs = lows, highs
        for j in range(self.width):
            if self.in_basis[j] or (lows[j], highs[j]) == (old_lows[j], old_highs[j]):
                continue
            moved = min(max(value[j], lows[j]), highs[j]) - value[j]
            if moved:
                value[j] += moved
                for i, row in enumerate(tab):
                    if row[j]:
                        value[basic[i]] -= moved * row[j]
            self.slopes[j] = self._slopes(j)
        for i, j in enumerate(basic):
            if j < self.width:
                start, end, cost = pieces[i]
                if start >= highs[j]:
                    pieces[i] = (highs[j], highs[j], cost)
                elif end <= lows[j]:
                    pieces[i] = (lows[j], lows[j], cost)

    def _pivot(self, leave: int, enter: int, piece: Piece) -> None:
        """Make ``enter`` basic in ``piece`` in place of row ``leave``'s
        column, which the caller has put on a breakpoint."""
        tab, basic, in_basis, z = self.tab, self.basic, self.in_basis, self.z
        slopes = self.slopes
        out = basic[leave]
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
        self.pieces[leave] = piece
        factor = piece[2] - z[enter]
        z[:] = [a + factor * b for a, b in zip(z, pivot_row)]

    def optimise(self) -> bool:
        """Run the current phase to optimality; False at the iteration cap."""
        tab, value, basic, pieces = self.tab, self.value, self.basic, self.pieces
        z, slopes = self.z, self.slopes
        columns = range(len(value))
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
            piece = self._piece(enter, up, value[enter])
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
            value[basic[leave]] = hit
            self._pivot(leave, enter, piece)
        return False

    def dual(self) -> int | None:
        """Run the phase-2 dual simplex from a dual-feasible basis: -1 once
        every basic column lies in its piece, the index of a row that proves
        the box empty, or None at the iteration cap."""
        tab, value, basic, pieces = self.tab, self.value, self.basic, self.pieces
        z, slopes = self.z, self.slopes
        degenerate = 0
        for _ in range(50 * len(value)):
            # the row whose column lies farthest outside its piece, or the
            # lowest-numbered such column when cycling
            bland = degenerate > _BLAND_AFTER
            leave, worst = -1, _TOL
            for i, j in enumerate(basic):
                start, end, _ = pieces[i]
                off = value[j] - end if value[j] > end else start - value[j]
                if off > _TOL and (
                    leave < 0 or (j < basic[leave] if bland else off > worst)
                ):
                    leave, worst = i, off
            if leave < 0:
                return -1
            row, out = tab[leave], basic[leave]
            start, end, cost = pieces[leave]
            above = value[out] > end  # else below its piece's start
            sign = 1.0 if above else -1.0
            # ratio test: the duals move by -sign·t·row, which brings the
            # leaving column's price to its next piece's slope at t = limit
            target = end if above else start
            beyond = self._piece(out, above, target)
            limit = inf if beyond is None else sign * (cost - beyond[2])
            enter = -1
            for j, alpha in enumerate(row):
                pair = slopes[j]
                if not alpha or pair is None:
                    continue
                rate = sign * alpha
                if rate > _TOL and pair[0] is not None:
                    room = max(z[j] - pair[0], 0.0) / rate
                elif rate < -_TOL and pair[1] is not None:
                    room = max(pair[1] - z[j], 0.0) / -rate
                else:
                    continue
                # on a tie the larger pivot wins, or the first when cycling
                if room < limit - _TOL or (
                    room < limit + _TOL
                    and enter >= 0
                    and not bland
                    and abs(alpha) > abs(row[enter])
                ):
                    limit, enter = room, j
            if limit == inf:
                return leave
            degenerate = degenerate + 1 if limit <= _TOL else 0
            if enter < 0:
                # the leaving column passes its breakpoint and stays basic
                pieces[leave] = beyond
                factor = beyond[2] - cost
                z[:] = [a + factor * b for a, b in zip(z, row)]
                continue
            step = (value[out] - target) / row[enter]
            piece = self._piece(enter, step > 0, value[enter])
            for i, r in enumerate(tab):
                if r[enter]:
                    value[basic[i]] -= step * r[enter]
            value[enter] += step
            value[out] = target
            self._pivot(leave, enter, piece)
        return None
