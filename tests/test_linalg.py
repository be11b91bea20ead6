"""Properties of the row-reduction core: Echelon and its subclass Expander."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.fields import GF, QQ
from quivergrass.linalg import Echelon, Expander, rref

FIELDS = [GF(2), GF(3), QQ]


def scalars(field):
    if field.finite:
        return st.sampled_from(list(field.elements()))
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw):
    """A field, a width and a list of vectors, with repeats and sums mixed in
    so that dependent vectors are common."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(0, 5))
    vec = st.lists(scalars(field), min_size=width, max_size=width)
    vecs = draw(st.lists(vec, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if len(vecs) >= 2:
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            vecs.append([field.add(x, y) for x, y in zip(a, b)])
    return field, width, vecs


def combine(field, coeffs, vecs, width):
    out = [field.zero] * width
    for c, v in zip(coeffs, vecs):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, v)]
    return out


@settings(max_examples=150, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_echelon_rows_do_not_depend_on_insertion_order(system, rnd):
    field, width, vecs = system
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    ech = rref(field, vecs, width)
    assert ech.snapshot() == rref(field, shuffled, width).snapshot()
    # canonical RREF: leading ones, pivot columns cleared in every other row
    assert ech.pivots == sorted(ech.pivots)
    for row, piv in zip(ech.rows, ech.pivots):
        assert all(c == field.zero for c in row[:piv]) and row[piv] == field.one
        assert all(other[piv] == field.zero for other in ech.rows if other is not row)


@settings(max_examples=150, deadline=None)
@given(st.data(), systems())
def test_expander_expresses_exactly_the_span(data, system):
    field, width, vecs = system
    exp = Expander(field, width)
    accepted = [v for v in vecs if exp.add(v)]
    coeffs = data.draw(st.lists(scalars(field), min_size=len(vecs), max_size=len(vecs)))
    inside = combine(field, coeffs, vecs, width)
    combo = exp.express(inside)
    assert combo is not None and len(combo) == len(accepted)
    assert combine(field, combo, accepted, width) == inside
    other = data.draw(st.lists(scalars(field), min_size=width, max_size=width))
    in_span = rref(field, vecs + [other], width).rank == len(accepted)
    assert (exp.express(other) is not None) == in_span


@settings(max_examples=150, deadline=None)
@given(systems())
def test_expander_and_echelon_agree(system):
    field, width, vecs = system
    ech, exp = Echelon(field, width), Expander(field, width)
    for v in vecs:
        assert ech.add(v) == exp.add(v)
        assert ech.rank == exp.rank and ech.snapshot() == exp.snapshot()
    for v in vecs:
        assert exp.contains(v) and exp.residual(v) == [field.zero] * width
