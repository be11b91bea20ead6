"""Properties of the row-reduction core: Echelon and its subclass Expander."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivergrass.fields import GF, QQ, Rationals
from quivergrass.linalg import Echelon, Expander, nullspace, rank, rref

FIELDS = [GF(2), GF(3), QQ]


def scalars(field):
    if field.char:
        return st.sampled_from(list(field.elements()))
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw, fields=FIELDS):
    """A field, a width and a list of vectors, with repeats and sums mixed in
    so that dependent vectors are common."""
    field = draw(st.sampled_from(fields))
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


@settings(max_examples=200, deadline=None)
@given(systems(), st.booleans())
@example((QQ, 0, [[], []]), False)
@example((GF(2), 3, []), False)
@example((QQ, 2, [[Fraction(0), 0], [0, Fraction(0)]]), False)
@example((GF(3), 1, [[0], [2], [1]]), False)
@example((QQ, 3, [[0, Fraction(2, 3), 1]]), False)
@example((GF(2), 3, [[1, 1, 0], [1, 1, 0]]), False)
def test_rank_is_the_rref_rank(system, zero):
    """Including zero matrices and shapes with 0 or 1 rows or columns,
    which `rank` answers without an Echelon."""
    field, width, rows = system
    if zero:
        rows = [[field.zero] * width for _ in rows]
    assert rank(field, rows, width) == rref(field, rows, width).rank


class FractionRationals(Rationals):
    """Q with every value a Fraction, integral or not: the field as it was
    before integral values became ints, kept as the reference."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a


@settings(max_examples=150, deadline=None)
@given(systems([QQ]))
def test_rationals_as_ints_reduce_like_fractions(system):
    """rref and nullspace over QQ equal those over the all-Fraction field,
    and every integral entry over QQ is an int."""
    _, width, vecs = system
    ref = FractionRationals()
    ech, ref_ech = rref(QQ, vecs, width), rref(ref, vecs, width)
    assert ech.pivots == ref_ech.pivots and ech.snapshot() == ref_ech.snapshot()
    basis = nullspace(QQ, vecs, width)
    assert basis == nullspace(ref, vecs, width)
    entries = [c for row in ech.snapshot() + tuple(basis) for c in row]
    assert all(type(c) is int for c in entries if Fraction(c).denominator == 1)


@settings(max_examples=150, deadline=None)
@given(st.data(), systems())
def test_base_rows_reduce_like_rows_added_first(data, system):
    """Modulo base = rref(B).rows, an Echelon or Expander accepts and refuses
    what one with B's rows added first does, leaves the same residuals and
    expresses a vector by the old coefficients past B's rank; the base rows
    are left as they were."""
    field, width, vecs = system
    vectors = st.lists(st.lists(scalars(field), min_size=width, max_size=width), max_size=3)
    b_vecs = data.draw(vectors)
    base = rref(field, b_vecs, width).rows
    kept = [list(r) for r in base]
    coeffs = data.draw(st.lists(scalars(field), min_size=len(b_vecs), max_size=len(b_vecs)))
    in_b = combine(field, coeffs, b_vecs, width)
    # a vector of B, and added vectors moved by it, meet the base
    vecs = vecs + [in_b] + [[field.add(x, y) for x, y in zip(in_b, v)] for v in vecs[:2]]
    probes = vecs + b_vecs + data.draw(vectors)
    for kind in (Echelon, Expander):
        new, old = kind(field, width, base), kind(field, width)
        assert all(old.add(r) for r in base)
        for v in vecs:
            assert new.add(v) == old.add(v)
            assert new.rank == old.rank - len(base)
        for v in probes:
            assert new.residual(v) == old.residual(v)
            assert new.contains(v) == old.contains(v)
            if kind is Expander:
                combo = old.express(v)
                assert new.express(v) == (None if combo is None else combo[len(base):])
    assert base == kept


def test_unit_leads_are_filed_without_an_inverse(monkeypatch):
    """Over F2 every lead is 1, so no inverse is taken; over F3 a lead of 2
    is still scaled to 1; over Q a lead of 1, int or Fraction, still leaves
    integral entries as ints."""
    f2 = GF(2)

    def no_inverse(a):
        raise AssertionError("inverse taken over F2")

    monkeypatch.setattr(f2, "inv", no_inverse)
    vecs = [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1]]
    for kind in (Echelon, Expander):
        ech = kind(f2, 4)
        assert [ech.add(v) for v in vecs] == [True, True, False, True]
        assert ech.snapshot() == rref(GF(2), vecs, 4).snapshot()
    for kind in (Echelon, Expander):
        ech = kind(GF(3), 3)
        assert ech.add([0, 2, 1]) and ech.snapshot() == ((0, 1, 2),)
        for lead in (1, Fraction(1)):
            ech = kind(QQ, 3)
            assert ech.add([lead, Fraction(4, 2), Fraction(1, 2)])
            assert ech.rows[0][:3] == [1, 2, Fraction(1, 2)]
            assert [type(c) for c in ech.rows[0]][:2] == [int, int]
