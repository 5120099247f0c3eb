import itertools
from fractions import Fraction
from math import factorial

import pytest

from shiftedschur import (
    DomainError,
    Partition,
    SkewShape,
    canonical_key,
    contains,
    count_standard_tableaux,
    hook_h,
    parse_partition,
    partitions_between,
    partitions_up_to,
)


# ---- independent oracles -------------------------------------------------------


def permutation_filter_count(outer, inner=()):
    """Count standard fillings by checking every assignment of 1..N to cells."""
    outer = tuple(outer)
    inner = tuple(inner)
    cells = [
        (r, c)
        for r, row in enumerate(outer)
        for c in range(inner[r] if r < len(inner) else 0, row)
    ]
    count = 0
    cellset = set(cells)
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        filling = dict(zip(cells, perm))
        ok = True
        for (r, c), v in filling.items():
            if (r, c + 1) in cellset and filling[(r, c + 1)] <= v:
                ok = False
                break
            if (r + 1, c) in cellset and filling[(r + 1, c)] <= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def generated_filling_count(outer, inner=()):
    """Count standard fillings by explicitly growing them cell by cell."""
    outer = tuple(outer)
    inner = tuple(inner)
    cells = [
        (r, c)
        for r, row in enumerate(outer)
        for c in range(inner[r] if r < len(inner) else 0, row)
    ]
    cellset = set(cells)

    def grow(filled: set) -> int:
        if len(filled) == len(cells):
            return 1
        total = 0
        for cell in cells:
            if cell in filled:
                continue
            r, c = cell
            left_ok = (r, c - 1) in filled or (r, c - 1) not in cellset
            up_ok = (r - 1, c) in filled or (r - 1, c) not in cellset
            if left_ok and up_ok:
                total += grow(filled | {cell})
        return total

    return grow(set())


def hook_length_formula(shape):
    """Straight-shape standard tableau count via the product of hook lengths."""
    shape = tuple(shape)
    n = sum(shape)
    prod = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            prod *= arm + leg + 1
    return factorial(n) // prod


# ---- Partition basics -------------------------------------------------------------


def test_parse_examples():
    assert parse_partition("3,1") == Partition([3, 1])
    assert parse_partition("") == Partition()
    assert parse_partition("0") == Partition()
    assert parse_partition("3,1,0") == Partition([3, 1])


@pytest.mark.parametrize("bad", ["1,3", "2,-1", "a,1", "1,,2"])
def test_parse_rejects(bad):
    with pytest.raises(DomainError):
        parse_partition(bad)


def test_parse_rejects_an_interior_zero():
    # Trailing zeros are dropped; a zero before a positive part is refused.
    with pytest.raises(DomainError) as excinfo:
        parse_partition("2,0,1")
    assert str(excinfo.value) == "interior zero part in partition (2, 0, 1)"


def test_contains_examples():
    assert contains(Partition([2, 1]), Partition([1]))
    assert not contains(Partition([2, 1]), Partition([2, 2]))
    assert contains(Partition([5, 3, 2]), Partition())
    assert not contains(Partition([2]), Partition([1, 1]))


def test_partition_accessors():
    p = Partition([4, 2, 1])
    assert p.weight == 7
    assert len(p) == 3
    assert p.part(1) == 4 and p.part(3) == 1 and p.part(4) == 0


def test_conjugate_transposes_the_diagram():
    assert Partition([4, 2, 1]).conjugate() == (3, 2, 1, 1)
    assert Partition().conjugate() == ()
    for p in partitions_up_to(6, 6):
        q = p.conjugate()
        assert type(q) is Partition and q.weight == p.weight and q.conjugate() == p
        cells = {(r, c) for r, row in enumerate(p) for c in range(row)}
        assert cells == {(c, r) for r, row in enumerate(q) for c in range(row)}


def test_skew_shape_validation():
    s = SkewShape(Partition([2, 2]), Partition([1]))
    assert s.size == 3
    with pytest.raises(DomainError):
        SkewShape(Partition([1]), Partition([2]))


# ---- tableau counting against the oracles -------------------------------------------


def test_count_examples():
    assert count_standard_tableaux(SkewShape(Partition(), Partition())) == 1
    assert count_standard_tableaux(SkewShape(Partition([2, 1]))) == 2
    assert count_standard_tableaux(SkewShape(Partition([2, 2]), Partition([1]))) == 2


def test_count_matches_permutation_filter_small():
    for outer in partitions_up_to(6, 6):
        shape = SkewShape(outer)
        assert count_standard_tableaux(shape) == permutation_filter_count(outer)


def test_count_matches_generated_fillings_to_weight_8():
    for outer in partitions_up_to(8, 8):
        shape = SkewShape(outer)
        assert count_standard_tableaux(shape) == generated_filling_count(outer)


def test_skew_count_matches_oracles():
    cases = [
        ((2, 2), (1,)),
        ((3, 1), (1,)),
        ((3, 2, 1), (1, 1)),
        ((4, 2), (2,)),
        ((4, 3, 1), (2, 1)),
        ((5, 4), (3, 1)),
        ((3, 3, 2), (2, 1)),
    ]
    for outer, inner in cases:
        got = count_standard_tableaux(SkewShape(Partition(outer), Partition(inner)))
        assert got == permutation_filter_count(outer, inner)
        assert got == generated_filling_count(outer, inner)


def test_single_row_and_column_counts():
    for n in range(1, 9):
        assert count_standard_tableaux(SkewShape(Partition([n]))) == 1
        assert count_standard_tableaux(SkewShape(Partition([1] * n))) == 1


def test_straight_shapes_match_hook_length_formula():
    for outer in partitions_up_to(8, 8):
        assert count_standard_tableaux(SkewShape(outer)) == hook_length_formula(outer)


# ---- the hook function -----------------------------------------------------------


def test_hook_h_examples():
    assert hook_h(SkewShape(Partition())) == 1
    assert hook_h(SkewShape(Partition([2, 1]))) == 3
    assert hook_h(SkewShape(Partition([2]), Partition([1]))) == 1


def test_hook_h_positive_rational_and_integral_on_straight_shapes():
    for outer in partitions_up_to(7, 7):
        h = hook_h(SkewShape(outer))
        assert isinstance(h, Fraction) and h > 0
        assert h.denominator == 1
    # A genuinely fractional skew value, pinned by the enumeration oracle.
    h = hook_h(SkewShape(Partition([4, 3]), Partition([2])))
    assert h == Fraction(factorial(5), permutation_filter_count((4, 3), (2,)))
    assert h.denominator != 1


def test_hook_h_skew_value():
    # (3,1)/(1): four fillings of 3 cells -> 3!/3 = 2.
    shape = SkewShape(Partition([3, 1]), Partition([1]))
    assert count_standard_tableaux(shape) == permutation_filter_count((3, 1), (1,))
    assert hook_h(shape) == Fraction(6, count_standard_tableaux(shape))


# ---- enumeration ---------------------------------------------------------------


def test_partitions_up_to_examples():
    assert partitions_up_to(1, 3) == [Partition(), Partition([1])]
    assert partitions_up_to(2, 1) == [Partition(), Partition([1]), Partition([2])]
    assert len(partitions_up_to(3, 3)) == 7


def test_partitions_up_to_order_and_bounds():
    out = partitions_up_to(5, 4)
    keys = [canonical_key(p) for p in out]
    assert keys == sorted(keys)
    assert len(set(out)) == len(out)
    assert all(p.weight <= 5 and len(p) <= 4 for p in out)
    # Closure: every partition within the bounds is present.
    assert Partition([2, 2, 1]) in out
    assert Partition([1, 1, 1, 1, 1]) not in out  # length 5 > 4


def test_partitions_between():
    rhos = partitions_between(Partition([1]), Partition([2, 1]))
    assert rhos == sorted(
        [Partition([1]), Partition([2]), Partition([1, 1]), Partition([2, 1])],
        key=canonical_key,
    )
    assert partitions_between(Partition([2]), Partition([1])) == []
    assert partitions_between(Partition(), Partition()) == [Partition()]


def test_tall_interval_opens_no_row_the_rows_below_cannot_follow(monkeypatch):
    # A row takes at most what the lower bounds of the rows below it leave, so
    # the candidates of 1^60 * 1 at n = 62 do not enumerate the rows of 1^60.
    import shiftedschur.partitions as pt
    from shiftedschur.structconst import _candidates

    real, calls = pt._partitions_of, []

    def counting(*args):  # the generator recurses through the module's global name
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pt, "_partitions_of", counting)
    tall = Partition([1] * 60)
    assert _candidates(tall, Partition([1]), 62) == [tall, Partition([2] + [1] * 59), tall + (1,)]
    assert len(calls) < 1000
