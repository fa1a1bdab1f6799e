"""Bitset helpers over non-negative ints (:mod:`repro._bits`)."""

from hypothesis import example, given, strategies as st

from repro._bits import bitset, flag_list


@given(st.lists(st.integers(0, 3000), max_size=60))
@example([])
@example([5, 5, 5])
@example([2364, 2365, 7, 2364])
def test_bitset_is_the_sum_of_distinct_bits(positions):
    """Ids run past the ~2,364 site ids of ``mul12``, so a bitset spans
    many machine words and many buffer bytes."""
    assert bitset(positions) == sum(1 << i for i in set(positions))


@given(st.integers(0, 2000), st.data())
def test_flag_list_marks_each_position(width, data):
    bits = data.draw(st.integers(0, (1 << width) - 1))
    assert flag_list(bits, width) == [bits >> i & 1 for i in range(width)]
