"""Exact dense linear algebra over Q and F_p.

Vectors are tuples (or lists) of field elements, matrices are tuples of row
tuples.  Everything here is deterministic: pivots are always the leftmost
nonzero coordinate, echelon forms are fully reduced.  An `Expander` is an
`Echelon` that also tracks combinations: it rewrites vectors of its span in
terms of the vectors it accepted.
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
    """

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def _reduce(self, out, rows, pivots):
        """Clear the pivot columns of the list out, in place, by subtracting
        multiples of the given rows over the first len(out) columns."""
        f = self.field
        zero, sub, mul = f.zero, f.sub, f.mul
        for row, piv in zip(rows, pivots):
            c = out[piv]
            if c != zero:
                for j in range(piv, len(out)):
                    out[j] = sub(out[j], mul(c, row[j]))
        return out

    def _insert(self, res):
        """File a reduced vector as a row if it is nonzero in the first width
        columns; returns True if it was.  A row one column shorter than the
        new one (an Expander's, before the new vector's column) gains a zero."""
        f = self.field
        zero = f.zero
        piv = next((j for j in range(self.width) if res[j] != zero), None)
        if piv is None:
            return False
        inv = f.inv(res[piv])
        row = [f.mul(inv, c) for c in res]
        for other in self.rows:
            if len(other) < len(row):
                other.append(zero)
            if other[piv] != zero:
                self._reduce(other, (row,), (piv,))
        at = bisect(self.pivots, piv)
        self.rows.insert(at, row)
        self.pivots.insert(at, piv)
        return True

    def residual(self, vec):
        """Reduce vec against the current rows; returns a list."""
        return self._reduce(list(vec), self.rows, self.pivots)

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


class Expander(Echelon):
    """Echelon that rewrites vectors as combinations of the added ones.

    Only vectors accepted by add() (i.e. independent at insertion time) are
    stored; express() returns coefficients over them, in insertion order.
    Past its first width columns, a row carries one column per accepted
    vector a_k: a row (r | t) satisfies r + sum_k t_k a_k = 0.  Reducing
    (v | 0) therefore leaves (res | c) with v = res + sum_k c_k a_k.
    """

    def add(self, vec):
        f = self.field
        res = self._reduce(list(vec) + [f.zero] * self.rank, self.rows, self.pivots)
        res.append(f.neg(f.one))  # the new vector's own column
        return self._insert(res)

    def express(self, vec):
        """Coefficients over the added vectors, or None if not in the span."""
        f = self.field
        res = self._reduce(list(vec) + [f.zero] * self.rank, self.rows, self.pivots)
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


def mat_vec(field, mat, vec):
    f = field
    out = []
    for row in mat:
        acc = f.zero
        for a, x in zip(row, vec):
            if a != f.zero and x != f.zero:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


def mat_mul(field, a, b, inner_cols):
    """Product a*b where a is r x inner and b is inner x c; inner_cols = c."""
    f = field
    if not a:
        return ()
    if not b:
        return tuple((f.zero,) * inner_cols for _ in a)
    out = []
    for row in a:
        acc = [f.zero] * inner_cols
        for coeff, brow in zip(row, b):
            if coeff != f.zero:
                for j, v in enumerate(brow):
                    if v != f.zero:
                        acc[j] = f.add(acc[j], f.mul(coeff, v))
        out.append(tuple(acc))
    return tuple(out)


def identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def is_invertible(field, mat, n):
    if n == 0:
        return True
    if len(mat) != n:
        return False
    return rref(field, list(mat), n).rank == n
