"""Factorization of SL_n matrices into elementary matrices.

The decomposition runs Euclidean row reduction (Z, F_p[x], and Z/m via lifts
to [0, m)), then clears the unit diagonal with 2x2 unit-diagonal identities.
No attempt is made to minimize the factor count.
"""

from __future__ import annotations

from .certificate import ElemFactor, ElemFactorization
from .errors import NotSL, UnsupportedRing
from .matrices import SqMatrix, _add_row, _identity_payload, determinant
from .rings import RingElement, RingSpec


def decompose_elementary(g: SqMatrix) -> ElemFactorization:
    """Factor g in SL_n over Z, F_p[x], or Z/m into elementary matrices.

    Left-multiplies g by elementary row operations until it reaches the
    identity; the inverses (reversed) then multiply back to g.  Pivot choice:
    smallest nonzero Euclidean norm in the working column, ties broken by
    lowest row index.
    """
    ring = g.ring
    k = ring.kernel
    if not k.euclidean:
        raise UnsupportedRing(f"decomposition not supported over {ring.descriptor()}")
    if determinant(g) != ring.one:
        raise NotSL("decomposition requires determinant 1")
    n = g.n
    rows = [list(r) for r in g.payload]
    ops: list[tuple[int, int, object]] = []  # row_i += a * row_j, payload multipliers

    def add_row(i: int, j: int, a):
        if not k.is_zero(a):
            ops.append((i, j, a))
            _add_row(k, rows, i, j, a)

    # Clear below the diagonal, column by column, leaving unit pivots.
    for c in range(n - 1):
        while True:
            live = [r for r in range(c, n) if not k.is_zero(rows[r][c])]
            if len(live) == 1:
                break
            piv = min(live, key=lambda r: (k.norm(rows[r][c]), r))
            for r in live:
                if r == piv:
                    continue
                # |entry - q * pivot| < |pivot| in the ring's Euclidean norm
                add_row(r, piv, k.neg(k.quotient(rows[r][c], rows[piv][c])))
        r = live[0]
        if r != c:
            add_row(c, r, k.one)
            add_row(r, c, k.minus_one)

    # Matrix is now upper triangular with unit diagonal; clear above pivots.
    for c in range(n - 1, 0, -1):
        pivinv = k.inverse(rows[c][c])
        assert pivinv is not None, "pivot must be a unit in SL_n"
        for r in range(c):
            x = rows[r][c]
            if not k.is_zero(x):
                add_row(r, c, k.neg(k.mul(x, pivinv)))

    # Reduce diag(u_1, ..., u_n) to I with embedded 2x2 unit-diagonal moves.
    for c in range(n - 1):
        u = rows[c][c]
        if u == k.one:
            continue
        uinv = k.inverse(u)
        assert uinv is not None
        # diag(u^-1, u) at rows (c, c+1) = w(u^-1) * w(-1), w(t) = E12(t)E21(-t^-1)E12(t)
        for (i, j, a) in reversed(
            [
                (c, c + 1, uinv),
                (c + 1, c, k.neg(u)),
                (c, c + 1, uinv),
                (c, c + 1, k.minus_one),
                (c + 1, c, k.one),
                (c, c + 1, k.minus_one),
            ]
        ):
            add_row(i, j, a)

    assert tuple(map(tuple, rows)) == _identity_payload(k, n), "row reduction did not reach the identity"

    # L_k ... L_1 g = I, hence g = L_1^-1 ... L_k^-1 (ops in original order).
    factors = tuple(ElemFactor(i + 1, j + 1, RingElement(ring, k.neg(a))) for (i, j, a) in ops)
    return ElemFactorization(factors, g)


def factor_count_census(n: int, ring: RingSpec, budget: int = 10**6):
    """Decompose every element of SL_n(ring) and histogram the factor counts.

    Returns (histogram dict, max count, group order).
    """
    from .census import enumerate_sl  # noqa: PLC0415

    table = enumerate_sl(n, ring, budget=budget)
    hist: dict[int, int] = {}
    for k in range(len(table)):
        c = decompose_elementary(table.element(k)).count
        hist[c] = hist.get(c, 0) + 1
    return hist, max(hist), len(table)


def census_csv(hist: dict[int, int], max_count: int, order: int) -> str:
    lines = ["count,frequency"]
    for c in sorted(hist):
        lines.append(f"{c},{hist[c]}")
    lines.append(f"max={max_count} order={order}")
    return "\n".join(lines) + "\n"
