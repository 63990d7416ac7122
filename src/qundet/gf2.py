"""Bit-packed GF(2) linear algebra.

Vectors are Python ints; bit j is component j.  Pivots are chosen
lowest column index first, so echelon forms, ranks and kernel bases
are deterministic.
"""

from __future__ import annotations


def echelon(rows: list[int]) -> tuple[list[int], list[int]]:
    """Row-reduce ``rows`` and return (reduced rows, pivot columns).

    The result is in reduced row echelon form: each pivot column has a
    single 1.  Zero rows are dropped; pivots are ascending.
    """
    ech: list[int] = []
    pivots: list[int] = []
    for row in rows:
        row = reduce_row(row, ech, pivots)
        if row == 0:
            continue
        p = lowest_set_bit(row)
        for i, e in enumerate(ech):
            if e >> p & 1:
                ech[i] = e ^ row
        at = sum(1 for q in pivots if q < p)
        pivots.insert(at, p)
        ech.insert(at, row)
    return ech, pivots


def reduce_row(row: int, ech: list[int], pivots: list[int]) -> int:
    for p, e in zip(pivots, ech):
        if row >> p & 1:
            row ^= e
    return row


def nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : row . v = 0 mod 2 for every row}, len = width - rank."""
    ech, pivots = echelon(rows)
    basis = []
    for c in range(width):
        if c in pivots:
            continue
        v = 1 << c
        for p, e in zip(pivots, ech):
            if e >> c & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def lowest_set_bit(v: int) -> int:
    return (v & -v).bit_length() - 1
