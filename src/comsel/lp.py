"""Float simplex that looks for row multipliers; it decides nothing itself.

The LP is the region search's relaxation: one column per region, whose
count lies in ``[low, high]`` and earns the region's gains, best first, so
the objective is concave and piecewise linear with a breakpoint at every
integer.  A row ``(terms, low, high)`` reads ``low <= Σ c·x_j <= high``
over its ``(j, c)`` terms, and gets a slack column equal to that sum,
bounded by the row's bounds.  One bounded-variable dual simplex solves
every LP.  It keeps every nonbasic column on a breakpoint and the prices
dual feasible, so that no nonbasic column gains by moving, and pivots out
each basic column that lies outside its piece or its bounds, or moves it
on to its next piece when that comes first.  It ends with the optimal
duals, or with a row that no pivot can repair, which is itself the
certificate of infeasibility.

A ``Simplex`` is built over the whole box, every count from 0 to its
region's size, and left unsolved.  It starts from the slack basis with
every price 0 and each count on the breakpoint where its gains turn from
positive to not: no column gains by moving, so the start is dual feasible.
How far it is from primal feasible depends on the gains; the caller may
shift them so that about as many are positive as the rows ask for (see
``regions``).

Every LP restarts from a state (``Simplex.solve``): one as built, or the
final state of a feasible LP over a box that holds the new one.  Every
column stays in the tableau, so a state fits every sub-box: a fixed column
is nonbasic at ``low == high``.  The new bounds clamp each nonbasic
column, which keeps the duals feasible because the gains are concave, and
the same dual simplex goes on from there, on a copy: the state is left as
it was.

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
Solved = tuple[bool, list[float], "Simplex | None"]


class Simplex:
    """An LP state, from which the LP over any box inside its own restarts."""

    def __init__(self, rows, gains):
        """The LP over ``rows``, each ``(terms, low, high)`` with ``high``
        None when the row has no upper bound, and one column per entry of
        ``gains``, whose count r lies in ``[0, len(gains[r])]`` and earns
        ``gains[r][n]`` for its (n+1)-th unit; the gains never rise."""
        width = len(gains)
        height = len(rows)
        self.width = width
        self.lows = [0] * width
        self.highs = [len(row) for row in gains]
        self.gains = gains
        self.row_lows = [low for _, low, _ in rows]
        self.row_highs = [inf if high is None else high for _, _, high in rows]
        # B⁻¹·[A | -I], with the slacks as the first basis, B = -I
        self.tab = []
        for i, (terms, _, _) in enumerate(rows):
            line = [0.0] * (width + height)
            for j, c in terms:
                line[j] = -float(c)
            line[width + i] = 1.0
            self.tab.append(line)
        # each count where its gains stop being positive: with every price
        # 0, no column gains by moving up or down
        start = [sum(g > 0 for g in row) for row in gains]
        self.value = [float(v) for v in start] + [
            float(sum(c * start[j] for j, c in terms)) for terms, _, _ in rows
        ]
        self.basic = list(range(width, width + height))
        self.in_basis = [False] * width + [True] * height
        self.pieces = list(zip(self.row_lows, self.row_highs, [0.0] * height))
        self.z = [0.0] * (width + height)
        self.slopes = [self._slopes(j) for j in range(width)] + [None] * height

    def solve(self, lows: Sequence[int], highs: Sequence[int]) -> Solved | None:
        """``(feasible, π, state)`` for the LP over the box ``lows``/
        ``highs`` inside this state's, restarted from this state, which is
        left as it was.  ``state`` is the final simplex when the LP is
        feasible, to restart from in turn, and None otherwise.  None when
        the iteration cap is reached first or the arithmetic breaks down.

        ``π`` is signed so that, for any counts in the bounds and any row sums
        ``s`` within the rows' bounds, ``Σ gains(x) <= Σ_i π_i·s_i +
        Σ_r (gains_r(x_r) - (π·A)_r·x_r)``: a positive ``π_i`` prices the
        row's upper bound and a negative one its lower bound.  When the LP is
        infeasible, ``π`` is a Farkas certificate instead."""
        lp = object.__new__(Simplex)
        lp.__dict__.update(self.__dict__)
        lp.tab = [row.copy() for row in self.tab]
        for name in ("value", "basic", "in_basis", "pieces", "z", "slopes"):
            setattr(lp, name, getattr(self, name).copy())
        lp._restrict(lows, highs)
        broken = lp._dual()
        if broken is None:
            return None
        if broken >= 0:
            feasible, duals, state = False, lp._certificate(broken), None
        else:
            feasible, duals, state = True, lp.duals(), lp
        return (feasible, duals, state) if all(map(isfinite, duals)) else None

    def duals(self) -> list[float]:
        # the slack column of row i is -e_i, so its price is -π_i
        return [-z for z in self.z[self.width :]]

    def _certificate(self, i: int) -> list[float]:
        """Row multipliers proving the box empty from tableau row ``i``,
        whose basic column no move of the nonbasic ones brings back into
        its bounds: the row reads ``x_basic = -Σ α_j·x_j``."""
        sign = 1.0 if self.value[self.basic[i]] > self.pieces[i][1] else -1.0
        return [sign * a for a in self.tab[i][self.width :]]

    def _piece(self, j: int, up: bool, v: float) -> Piece | None:
        """The piece column ``j`` enters moving up or down from the
        breakpoint ``v``, or None when it may not move that way."""
        if j < self.width:
            if up:
                return (v, v + 1, self.gains[j][int(v)]) if v < self.highs[j] else None
            return (v - 1, v, self.gains[j][int(v) - 1]) if v > self.lows[j] else None
        low, high = self.row_lows[j - self.width], self.row_highs[j - self.width]
        if up:
            return (v, high, 0.0) if v < high else None
        return (low, v, 0.0) if v > low else None

    def _slopes(self, j: int) -> tuple[float | None, float | None]:
        """The slopes of the pieces above and below a nonbasic column."""
        v = self.value[j]
        up, down = self._piece(j, True, v), self._piece(j, False, v)
        return (None if up is None else up[2], None if down is None else down[2])

    def _restrict(self, lows: Sequence[int], highs: Sequence[int]) -> None:
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

    def _dual(self) -> int | None:
        """Run the dual simplex from a dual-feasible basis: -1 once
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
