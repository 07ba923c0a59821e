"""Counting: closed form, exhaustive oracle, constructive enumerator."""
import collections
import contextlib
import io
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bcst import census, cli
from bcst.census import (
    IntractableError,
    census_report,
    enumerate_selections,
    formula_count,
    grid_oracle_count,
    multiplicity_factor,
    oracle_count,
)
from bcst.channel import validate_selection


# published counts for the 4x4 grid
@pytest.mark.parametrize("n,expected", [(2, 144), (3, 3648), (4, 63744)])
def test_formula_published_values(n, expected):
    assert formula_count(2, n) == expected


def test_formula_first_branch():
    # n > 2^p: falling factorial over the full grid
    assert formula_count(2, 5) == 16 * 15 * 14 * 13 * 12  # 524160


def test_formula_boundary_uses_second_branch():
    # the printed piecewise form omits n = 2^p; the second branch is what
    # reproduces the published n=4 number (the first would give 43680)
    assert formula_count(2, 4) == 63744 != 16 * 15 * 14 * 13


def test_formula_domain():
    with pytest.raises(ValueError):
        formula_count(2, 17)
    with pytest.raises(ValueError):
        formula_count(2, 1)
    with pytest.raises(ValueError):
        formula_count(0, 2)


@pytest.mark.parametrize("p, n, digits", [(16, 65537, 631316), (16, 65536, 631306)])
def test_formula_refuses_an_unprintable_count_before_building_it(p, n, digits):
    # either branch's count would take a quarter of a megabyte; it is sized
    # from logarithms and refused before any of it is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^a count of {digits} digits is "
                           "past the 4300-digit limit on printing an integer$"):
            formula_count(p, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("limit", [640, 4300])
def test_formula_refuses_exactly_the_counts_past_the_digit_limit(limit):
    """Within three digits of the limit, in both branches, the refusal and the
    digit count it names agree with the exact count."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    near = 0
    try:
        for p in range(1, 25):
            cells, falling = 4**p, 1
            for n in range(1, cells + 1):  # the count grows with n
                falling *= cells - n + 1
                exact = falling if n > 2**p else (
                    2 ** (p * n) * (2 ** (p * n) - 2 ** (p + 1) + 1))
                size = exact.bit_length() * math.log10(2)
                if size > limit + 3:
                    break
                if n < 2 or size < limit - 3:
                    continue
                near += 1
                digits = math.floor(math.log10(exact)) + 1
                assert 10 ** (digits - 1) <= exact < 10**digits
                if digits <= limit:
                    assert formula_count(p, n) == exact
                else:
                    with pytest.raises(ValueError, match=f"^a count of {digits} "):
                        formula_count(p, n)
    finally:
        sys.set_int_max_str_digits(old)
    assert near >= 10


def test_oracle_tiny_grid_by_hand():
    # 2x2 grid, ordered pairs: 12 distinct, 8 share a row or column
    assert oracle_count(2, 2, 2) == 4


def test_oracle_matches_formula_at_n2():
    assert oracle_count(4, 4, 2) == 144 == formula_count(2, 2)


def test_oracle_n3_by_inclusion_exclusion():
    # 16*15*14 ordered distinct triples minus all-same-row/column ones
    assert oracle_count(4, 4, 3) == 16 * 15 * 14 - 2 * (4 * 4 * 3 * 2)  # 3168


def test_oracle_disagrees_with_formula_for_n3():
    # the closed form counts something else here; the gap is the finding
    assert formula_count(2, 3) != oracle_count(4, 4, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_oracle_n2_closed_form(r, c):
    # rc ordered cells, rc-1 distinct partners, r+c-2 of them share a line
    assert oracle_count(r, c, 2) == r * c * (r * c - r - c + 1)


def test_oracle_guard():
    with pytest.raises(IntractableError):
        oracle_count(4, 4, 8)  # 16^8 tuples


def test_grid_oracle_count_refuses_what_the_oracle_guard_refuses():
    # the check sized from p and n gives the guard's verdict and message on
    # every grid small enough to build (the count itself is not run)
    def outcome(fn):
        try:
            fn()
        except ValueError as exc:
            return type(exc), str(exc)
    with mock.patch.object(census, "oracle_count", census._guard):
        for p, n in itertools.product(range(1, 8), range(2, 20)):
            guard = outcome(lambda: census._guard(1 << p, 1 << p, n))
            assert outcome(lambda: grid_oracle_count(p, n)) == guard, (p, n)


def test_grid_oracle_count_refuses_a_huge_p_before_building_its_grid():
    tracemalloc.start()
    try:
        with pytest.raises(IntractableError) as exc:
            grid_oracle_count(10**12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "(4^1000000000000)^2 tuples exceed the exhaustive limit 100000000"
    assert peak < 1 << 16


def test_enumerator_agrees_with_oracle():
    for rows, cols, n in [(2, 2, 2), (4, 4, 2), (2, 4, 2), (4, 4, 3)]:
        got = list(enumerate_selections(rows, cols, n))
        assert len(got) == oracle_count(rows, cols, n)
        assert len(set(got)) == len(got)  # each exactly once


def test_enumerator_lexicographic_start():
    first = next(enumerate_selections(4, 4, 2))
    assert first == ((1, 1), (2, 2))


def test_enumerator_output_is_valid_and_ordered():
    got = list(enumerate_selections(4, 4, 2))
    for sel in got[:20]:
        assert validate_selection(sel, 4) is None
    assert got == sorted(got)


@pytest.mark.parametrize("l,n,expected", [(1, 2, 2), (2, 2, 12), (2, 4, 24)])
def test_multiplicity_factor(l, n, expected):
    assert multiplicity_factor(l, n) == expected


def test_multiplicity_factor_domain():
    with pytest.raises(ValueError):
        multiplicity_factor(1, 3)


def test_census_report_n2_matches():
    report = census_report(2, 2)
    assert report.formula_value == 144
    assert report.oracle_value == 144
    assert report.constructive_value == 144
    assert report.formula_matches_oracle is True
    assert report.oracle_matches_constructive is True
    assert report.controller_qubits == 1
    assert report.controller_multiplicity == 2
    assert any("MATCH" in line for line in report.lines())


def test_census_report_n3_flags_mismatch():
    report = census_report(2, 3)
    assert report.formula_value == 3648
    assert report.oracle_value == 3168
    assert report.formula_matches_oracle is False
    assert report.oracle_matches_constructive is True
    assert any("MISMATCH" in line for line in report.lines())


def test_census_report_intractable_cell():
    report = census_report(2, 8)
    assert report.oracle_value is None
    assert report.constructive_value is None
    assert report.formula_matches_oracle is None
    assert any("intractable" in line for line in report.lines())


# ---- block counters against the per-tuple references ----------------------------

def reference_oracle(rows, cols, n):
    """The per-tuple oracle: int64 divmod decode and a sort, 2^18-row chunks."""
    base = rows * cols
    total = base**n
    count = 0
    for start in range(0, total, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), total), dtype=np.int64)
        digits = np.empty((idx.size, n), dtype=np.int64)
        rem = idx
        for pos in range(n - 1, -1, -1):
            digits[:, pos] = rem % base
            rem = rem // base
        r = digits // cols
        c = digits % cols
        distinct = np.all(np.diff(np.sort(digits, axis=1), axis=1) != 0, axis=1)
        same_row = np.all(r == r[:, :1], axis=1)
        same_col = np.all(c == c[:, :1], axis=1)
        count += int(np.count_nonzero(distinct & ~same_row & ~same_col))
    return count


def reference_enumerator(rows, cols, n):
    """The per-tuple enumerator: itertools.permutations filtered by all()."""
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    for combo in itertools.permutations(cells, n):
        if all(i == combo[0][0] for i, _ in combo):
            continue
        if all(j == combo[0][1] for _, j in combo):
            continue
        yield combo


def exact_count(rows, cols, n):
    # distinct ordered tuples minus those in one row or in one column
    return (math.perm(rows * cols, n) - rows * math.perm(cols, n)
            - cols * math.perm(rows, n))


# every rows, cols, n in 2..5 whose tuple space the references walk in
# milliseconds; the cap keeps every case up to 4 x 4 with n = 4 (16^4 tuples)
REFERENCE_CASES = [(rows, cols, n) for rows, cols, n in itertools.product(range(2, 6), repeat=3)
                   if n <= rows * cols and (rows * cols) ** n <= 7 * 10**4]


def test_counters_match_the_references():
    for rows, cols, n in REFERENCE_CASES:
        expected = exact_count(rows, cols, n)
        assert oracle_count(rows, cols, n) == reference_oracle(rows, cols, n) == expected
        got = list(enumerate_selections(rows, cols, n))
        assert got == list(reference_enumerator(rows, cols, n))
        assert len(got) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4), st.sampled_from([1, 16, 64]))
def test_oracle_is_exact_for_any_prefix_length(rows, cols, n, chunk):
    # a small table moves digits into the prefix loop, which the default
    # table size reaches only from n = 6 on the 4x4 grid
    with mock.patch.object(census, "_CHUNK", chunk):
        assert oracle_count(rows, cols, n) == reference_oracle(rows, cols, n)


@pytest.mark.parametrize("rows,cols,n", [(4, 4, 5), (8, 8, 3)])
def test_counters_at_workload_sizes(rows, cols, n):
    expected = exact_count(rows, cols, n)
    assert oracle_count(rows, cols, n) == reference_oracle(rows, cols, n) == expected
    head = list(itertools.islice(enumerate_selections(rows, cols, n), 1000))
    assert head == list(itertools.islice(reference_enumerator(rows, cols, n), 1000))
    tail = collections.deque(maxlen=1000)
    seen = 0
    for sel in enumerate_selections(rows, cols, n):
        tail.append(sel)
        seen += 1
    assert seen == expected
    assert list(tail) == list(collections.deque(reference_enumerator(rows, cols, n),
                                                maxlen=1000))


def test_enumerator_guard_raises_on_first_value():
    with pytest.raises(IntractableError):
        next(enumerate_selections(4, 4, 8))


def test_oracle_memory_stays_chunked():
    # the 16^6 tuple space is 100 MB as int64; the counter must not hold it
    tracemalloc.start()
    try:
        value = oracle_count(4, 4, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 5765760
    assert peak < 16 * 2**20


def test_enumerator_memory_stays_flat():
    # each first cell holds only the orderings of its own row and column
    tracemalloc.start()
    try:
        value = sum(1 for _ in enumerate_selections(16, 16, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == exact_count(16, 16, 2)
    assert peak < 2**18


# ---- sizes past the interpreter's limit on printing an integer -------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: oracle_count(1 << 7200, 1 << 7200, 2), IntractableError,
     "(14401-bit number)^2 tuples exceed the exhaustive limit 100000000"),
    (lambda: next(enumerate_selections(1 << 7200, 1 << 7200, 2)), IntractableError,
     "(14401-bit number)^2 tuples exceed the exhaustive limit 100000000"),
    (lambda: oracle_count(2, 2, 10**5000), ValueError,
     "cannot select (16610-bit number) distinct cells from 4"),
    (lambda: formula_count(2, 10**5000), ValueError,
     "cannot select (16610-bit number) distinct cells from 16"),
    (lambda: formula_count(600, 2**601), ValueError,
     "a count of over 2^600 bits is past the 4300-digit limit on printing an integer"),
    (lambda: formula_count(10**200, 10**200), ValueError,
     "a count of over 2^1328 bits is past the 4300-digit limit on printing an integer"),
    (lambda: grid_oracle_count(10**5000, 10**5000), IntractableError,
     "(4^(16610-bit number))^(16610-bit number) tuples exceed the exhaustive limit 100000000"),
], ids=["oracle-grid", "enumerator-grid", "oracle-n", "formula-n", "formula-wide",
        "formula-power", "grid-oracle-p-n"])
def test_a_size_past_the_print_limit_is_named_by_its_bit_length(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# ---- exit-code contract over any integers ----------------------------------------

BIG = 10**999
INTEGERS = st.integers(-3, 40) | st.sampled_from([
    -BIG, -(2**64), -7, 0, 63, 64, 65, 100, 600, 7200, 2**31 - 1, 2**32 + 1, 2**63,
    2**64 + 1, 2**601, 4**600 - 5, 10**12, BIG, BIG + 1,
])


def exhaustive_tuples(rows, cols, n):
    """The oracle's tuple count when its guard admits it, else None."""
    if min(rows, cols, n) < 2 or n > rows * cols or (rows * cols).bit_length() * n > 64:
        return None
    tuples = (rows * cols) ** n
    return tuples if tuples <= census.ORACLE_LIMIT else None


def affordable(rows, cols, n):
    """Whether an exhaustive count here, if it is run at all, stays cheap."""
    tuples = exhaustive_tuples(rows, cols, n)
    return tuples is None or tuples <= 10**5


def grid_side(p):
    """The side 2^p of the grid; 0 where no grid is drawn or none is tractable."""
    return 1 << p if 1 <= p <= 64 else 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(INTEGERS, INTEGERS, st.sampled_from([(), ("--formula",), ("--oracle",), ("--both",)]))
def test_census_cli_exits_with_a_documented_code_and_one_line(p, n, mode):
    side = grid_side(p)
    assume(mode == ("--formula",) or affordable(side, side, n))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["census", str(p), str(n), *mode])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INTRACTABLE)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != cli.EXIT_OK)
    assert all(line.startswith("error: ") and len(line) < 200 for line in lines)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(INTEGERS, INTEGERS, INTEGERS)
def test_census_api_raises_only_a_short_value_error(a, b, n):
    side = grid_side(a)
    assume(affordable(a, b, n) and affordable(side, side, n))
    calls = [lambda: formula_count(a, n), lambda: oracle_count(a, b, n),
             lambda: grid_oracle_count(a, n), lambda: next(enumerate_selections(a, b, n)),
             lambda: census_report(a, n)]
    for call in calls:
        try:
            call()
        except ValueError as exc:  # IntractableError is one
            assert len(str(exc)) < 200
