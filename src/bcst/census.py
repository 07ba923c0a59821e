"""Counting admissible channel selections three independent ways.

formula_count evaluates the published closed-form expression for the number
of ordered rule-respecting selections over the 2^p x 2^p grid.  oracle_count
filters every one of the (rows*cols)^n ordered cell tuples through the
structural rules in numpy.  enumerate_selections, plain itertools, generates
only duplicate-free tuples, drops per first cell those that keep to its row
or column, and yields in lexicographic order.  The two exhaustive counters
share no method and must always agree; the closed form differs from them
for 3 <= n <= 2^p, and census_report records that rather than reconciling it.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import PairCell

ORACLE_LIMIT = 10**8
_CHUNK = 1 << 18


class IntractableError(ValueError):
    pass


def formula_count(p: int, n: int) -> int:
    """Closed-form selection count for n terms over the 2^p x 2^p grid.

    Two branches: a falling factorial of grid cells when n exceeds the basis
    size 2^p, otherwise 2^(pn) * (2^(pn) - 2^(p+1) + 1).  The n == 2^p
    boundary uses the second branch (it reproduces the published figure for
    p=2, n=4).  With N = 2^p the exact count is perm(N^2, n) - 2N perm(N, n);
    this form agrees with it at n = 2 and for every n > 2^p, and differs only
    for 3 <= n <= 2^p (p=2: 3648 vs 3168 at n=3, 63744 vs 43488 at n=4).
    census_report sets it against the exhaustive counters.  A count with more
    digits than the interpreter prints is sized and refused before it is built.
    """
    if p < 1 or n < 2:
        raise ValueError("need p >= 1 and n >= 2")
    # powers of 2 are compared by bit length: a huge p builds nothing here
    if (n - 1).bit_length() > 2 * p:
        raise ValueError(f"cannot select {_shown(n)} distinct cells from {_shown(4**p)}")
    wide = (n - 1).bit_length() > p  # n > 2^p
    limit = sys.get_int_max_str_digits()
    # the count is at least 2^bits (n! >= 2^(n-1) when wide); from 2^66 bits
    # on it passes any limit, and no float holds its logarithm
    bits = n - 1 if wide else p * n
    if limit and bits >> 66:
        raise ValueError(f"a count of over 2^{bits.bit_length() - 1} bits is past the "
                         f"{limit}-digit limit on printing an integer")
    # the power is 2^(2pn) to within a factor 1 - 2^(p+1-pn)
    log10 = _log10_perm(4**p, n) if wide else 2 * p * n * math.log10(2)
    if limit and log10 >= limit:
        raise ValueError(f"a count of {math.floor(log10) + 1} digits is past the "
                         f"{limit}-digit limit on printing an integer")
    if wide:
        return math.perm(4**p, n)
    return 2 ** (p * n) * (2 ** (p * n) - 2 ** (p + 1) + 1)


def _log10_perm(cells: int, n: int) -> float:
    """log10 of perm(cells, n) without building it: lgamma(cells + 1) -
    lgamma(cells - n + 1) while few cells are left over, else (as those
    would cancel) Stirling's series of both, differenced term by term."""
    left = cells - n
    if left < 1 << 10:
        ln = math.lgamma(cells + 1) - math.lgamma(left + 1)
    else:
        ln = (n * math.log(cells) - n + (left + 0.5) * math.log1p(n / left)
              + 1 / (12 * cells) - 1 / (12 * left))
    return ln / math.log(10)


def _shown(x: int) -> str:
    """x in digits below 2^64, else by bit length (it may be past the print limit)."""
    return str(x) if x.bit_length() <= 64 else f"({x.bit_length()}-bit number)"


def _guard(rows: int, cols: int, n: int) -> None:
    if rows < 2 or cols < 2 or n < 2:
        raise ValueError("need rows, cols and n all >= 2")
    cells = rows * cols
    if n > cells:
        raise ValueError(f"cannot select {_shown(n)} distinct cells from {_shown(cells)}")
    # cells^n >= 2^((bits - 1) n), which passes the limit once the exponent
    # reaches the limit's bit length: a wide grid builds no power of itself
    if (cells.bit_length() - 1) * n >= ORACLE_LIMIT.bit_length() or cells**n > ORACLE_LIMIT:
        raise IntractableError(f"{_shown(cells)}^{_shown(n)} tuples exceed the "
                               f"exhaustive limit {ORACLE_LIMIT}")


def grid_oracle_count(p: int, n: int) -> int:
    """oracle_count on the 2^p x 2^p grid, refused from p and n before 2^p is built."""
    if p < 1 or n < 2:
        raise ValueError("need p >= 1 and n >= 2")
    # 4^(pn) tuples; an n past the 4^p cells is oracle_count's input error
    if (n - 1).bit_length() <= 2 * p and 2 * p * n >= ORACLE_LIMIT.bit_length():
        base = 4**p if p < 32 else f"(4^{_shown(p)})"  # in digits while 4^p < 2^64
        raise IntractableError(f"{base}^{_shown(n)} tuples exceed the "
                               f"exhaustive limit {ORACLE_LIMIT}")
    return oracle_count(1 << p, 1 << p, n)


def oracle_count(rows: int, cols: int, n: int) -> int:
    """Count valid ordered selections by filtering all (rows*cols)^n tuples.

    A tuple is kept iff its cells are pairwise distinct and neither its row
    nor its column coordinate is constant.  The trailing k digits come from
    one table of all base^k combinations (base^k <= _CHUNK, small integer
    dtype) with its cells' rows and columns and its own distinct mask
    computed once; each of the base^(n-k) leading-digit prefixes is then
    tested against the whole table by broadcast comparisons.
    """
    _guard(rows, cols, n)
    base = rows * cols
    k = 1
    while k < n and base ** (k + 1) <= _CHUNK:
        k += 1
    dtype = np.uint8 if base <= 256 else np.uint16
    tail = np.indices((base,) * k, dtype=dtype).reshape(k, -1)
    tail_rows = tail // cols
    tail_cols = tail % cols
    tail_distinct = np.ones(tail.shape[1], dtype=bool)
    for a, b in itertools.combinations(range(k), 2):
        tail_distinct &= tail[a] != tail[b]
    count = 0
    for prefix in itertools.product(range(base), repeat=n - k):
        first = prefix[0] if prefix else tail[0]
        row, col = first // cols, first % cols
        keep = tail_distinct.copy()
        same_row = np.all(tail_rows == row, axis=0)
        same_col = np.all(tail_cols == col, axis=0)
        for a, b in itertools.combinations(prefix, 2):
            keep &= a != b
        for cell in prefix:
            keep &= np.all(tail != cell, axis=0)
            same_row &= cell // cols == row
            same_col &= cell % cols == col
        count += int(np.count_nonzero(keep & ~same_row & ~same_col))
    return count


def enumerate_selections(rows: int, cols: int, n: int) -> Iterator[tuple[PairCell, ...]]:
    """Yield valid ordered selections (1-based cells) in lexicographic order.

    Constructive counterpart to oracle_count: only duplicate-free tuples are
    generated (itertools.permutations), one first cell at a time.  A
    selection breaks Rule 1 only when its other n - 1 cells all lie in the
    first cell's row or all in its column, so each first cell drops just
    the orderings of those two short lines.
    """
    _guard(rows, cols, n)
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    for k, first in enumerate(cells):
        i, j = divmod(k, cols)
        rest = cells[:k] + cells[k + 1:]
        # the other cells of the first cell's row and of its column
        row = cells[i * cols:k] + cells[k + 1:(i + 1) * cols]
        col = cells[j:k:cols] + cells[k + cols::cols]
        broken = {*itertools.permutations(row, n - 1), *itertools.permutations(col, n - 1)}
        kept = itertools.filterfalse(broken.__contains__, itertools.permutations(rest, n - 1))
        yield from map((first,).__add__, kept)


def multiplicity_factor(l: int, n: int) -> int:
    """Ordered ways to key n terms to an l-qubit controller: (2^l)!/(2^l-n)!."""
    if l < 1 or n < 1:
        raise ValueError("need l >= 1 and n >= 1")
    if n > 1 << l:
        raise ValueError(f"{l} controller qubits cannot key {n} terms")
    return math.perm(1 << l, n)


@dataclass(frozen=True)
class CensusReport:
    p: int
    n: int
    formula_value: int
    oracle_value: int | None
    constructive_value: int | None
    controller_qubits: int
    controller_multiplicity: int
    formula_matches_oracle: bool | None
    oracle_matches_constructive: bool | None

    def lines(self) -> list[str]:
        rows = 1 << self.p
        out = [
            f"census p={self.p} n={self.n} (grid {rows}x{rows})",
            f"  closed form:  {self.formula_value}",
        ]
        if self.oracle_value is None:
            out.append(f"  oracle:       intractable (limit {ORACLE_LIMIT})")
        else:
            out.append(f"  oracle:       {self.oracle_value}")
            out.append(f"  constructive: {self.constructive_value}")
            verdict = "MATCH" if self.formula_matches_oracle else "MISMATCH"
            out.append(f"  closed form vs oracle: {verdict}")
        out.append(
            f"  controller orderings (l={self.controller_qubits}): "
            f"x{self.controller_multiplicity}"
        )
        return out


def census_report(p: int, n: int) -> CensusReport:
    """Cross-check the closed form against both exhaustive counters.

    Intractable grid sizes leave the exhaustive values absent; a closed form
    vs oracle mismatch is a reportable finding, never an exception.
    """
    formula = formula_count(p, n)
    try:
        oracle = grid_oracle_count(p, n)
        constructive = sum(1 for _ in enumerate_selections(1 << p, 1 << p, n))
    except IntractableError:
        oracle = constructive = None
    l = max(1, math.ceil(math.log2(n)))
    return CensusReport(
        p=p,
        n=n,
        formula_value=formula,
        oracle_value=oracle,
        constructive_value=constructive,
        controller_qubits=l,
        controller_multiplicity=multiplicity_factor(l, n),
        formula_matches_oracle=None if oracle is None else formula == oracle,
        oracle_matches_constructive=None if oracle is None else oracle == constructive,
    )
