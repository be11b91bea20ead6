"""Exact dense linear algebra over Q and F_p.

Vectors are tuples (or lists) of field elements, matrices are tuples of row
tuples.  Everything here is deterministic: pivots are always the leftmost
nonzero coordinate, echelon forms are fully reduced.  An `Expander` is an
`Echelon` that also tracks combinations: it rewrites vectors of its span in
terms of the vectors it accepted.  Either may work modulo a `base` of fixed
reduced rows, which it never changes, counts in its rank or expresses over.
"""

from __future__ import annotations

from bisect import bisect


class Echelon:
    """Incrementally maintained reduced row echelon form.

    Rows are kept fully reduced (each pivot column is zero in every other
    row) and sorted by pivot column, so the stored rows are the canonical
    RREF basis of the span.  Pivots lie among the first `width` columns; a
    row may carry further columns (an Expander's combinations), which the
    reduction carries along.

    With base rows (a reduced echelon basis of a subspace B, sorted by
    pivot) it is an echelon of the quotient by B: vectors are reduced by the
    base, then by the rows, which stay zero at the base's pivots; residuals
    are those of B's rows added first, and the rank counts only the rows.
    """

    def __init__(self, field, width, base=()):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []
        self.base = base
        self.base_pivots = [r.index(field.one) for r in base]  # the first nonzero entry

    def _reduce(self, out, rows, pivots):
        """Clear the pivot columns of the list out, in place, by subtracting
        multiples of the given rows over the first len(out) columns."""
        p = self.field.char
        if p:  # F_p: entries are ints, reduced mod p inline
            for row, piv in zip(rows, pivots):
                c = out[piv]
                if c:
                    for j in range(piv, len(out)):
                        out[j] = (out[j] - c * row[j]) % p
            return out
        sub, mul = self.field.sub, self.field.mul
        for row, piv in zip(rows, pivots):
            c = out[piv]
            if c:  # a zero is falsy: the int 0, or a Fraction(0) given from outside
                for j in range(piv, len(out)):
                    out[j] = sub(out[j], mul(c, row[j]))
        return out

    def _insert(self, res):
        """File a reduced vector as a row if it is nonzero in the first width
        columns; returns True if it was.  A row one column shorter than the
        new one (an Expander's, before the new vector's column) gains a zero."""
        for piv in range(self.width):
            if res[piv]:
                break
        else:
            return False
        f = self.field
        if f.char and res[piv] == 1:  # F_p entries lie in range(p): a unit lead is the row
            row = res
        else:  # over Q, scaling also makes integral entries ints
            inv = f.inv(res[piv])
            row = [f.mul(inv, c) for c in res]
        for other in self.rows:
            if len(other) < len(row):
                other.append(f.zero)
            if other[piv]:
                self._reduce(other, (row,), (piv,))
        at = bisect(self.pivots, piv)
        self.rows.insert(at, row)
        self.pivots.insert(at, piv)
        return True

    @classmethod
    def of_reduced(cls, field, width, rows):
        """The echelon of rows that already form a reduced echelon basis,
        sorted by pivot, filed as they are without a reduction."""
        ech = cls(field, width)
        ech.rows = [list(r) for r in rows]
        ech.pivots = [r.index(field.one) for r in rows]  # the first nonzero entry
        return ech

    def residual(self, vec, pad=0):
        """Reduce vec, with pad zero columns appended, by the base and then
        the current rows; returns a list."""
        out = list(vec)
        if self.base:
            self._reduce(out, self.base, self.base_pivots)
        if pad:
            out += [self.field.zero] * pad
        return self._reduce(out, self.rows, self.pivots)

    def contains(self, vec):
        return all(c == self.field.zero for c in self.residual(vec))

    def add(self, vec):
        """Insert vec's residual if independent; returns True if rank grew."""
        return self._insert(self.residual(vec))

    @property
    def rank(self):
        return len(self.rows)

    def snapshot(self):
        return tuple(tuple(r[: self.width]) for r in self.rows)


def rref(field, rows, width):
    ech = Echelon(field, width)
    for r in rows:
        ech.add(r)
    return ech


def rank(field, rows, width):
    """Rank of a matrix given as rows of the given width.  An empty or zero
    matrix has rank 0 and a nonzero one of one row or one column rank 1,
    both read without an Echelon; any other is row reduced."""
    if not any(c for r in rows for c in r):  # a zero is falsy: the int 0 or a Fraction(0)
        return 0
    if len(rows) == 1 or width == 1:
        return 1
    return rref(field, rows, width).rank


class Expander(Echelon):
    """Echelon that rewrites vectors as combinations of the added ones.

    Only vectors accepted by add() (i.e. independent at insertion time) are
    stored; express() returns coefficients over them, in insertion order.
    Past its first width columns, a row carries one column per accepted
    vector a_k: a row (r | t) satisfies r + sum_k t_k a_k = 0 modulo the
    base.  Reducing (v | 0) therefore leaves (res | c) with
    v = res + sum_k c_k a_k modulo the base.
    """

    def add(self, vec):
        f = self.field
        res = self.residual(vec, self.rank)
        res.append(f.neg(f.one))  # the new vector's own column
        return self._insert(res)

    def express(self, vec):
        """Coefficients over the added vectors, or None if not in the span."""
        f = self.field
        res = self.residual(vec, self.rank)
        if any(c != f.zero for c in res[: self.width]):
            return None
        return res[self.width :]


def nullspace(field, rows, width):
    """Canonical basis of the right nullspace of the given matrix.

    One basis vector per free column, with 1 in the free position; the basis
    is itself in echelon form with respect to the free columns.
    """
    ech = rref(field, rows, width)
    pivset = set(ech.pivots)
    basis = []
    for free in range(width):
        if free in pivset:
            continue
        vec = [field.zero] * width
        vec[free] = field.one
        for row, piv in zip(ech.rows, ech.pivots):
            vec[piv] = field.neg(row[free])
        basis.append(tuple(vec))
    return basis


def is_invertible(field, mat, n):
    return n == 0 or (len(mat) == n and rank(field, mat, n) == n)
