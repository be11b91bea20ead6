"""Sparse multivariate polynomial arithmetic over an exact field.

A polynomial in N variables is a dict mapping exponent tuples (length N) to
nonzero coefficients; {} is zero.  Monomials are compared in graded lex
order with X1 > X2 > ... .
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def add(field, a, b):
    out = dict(a)
    for e, c in b.items():
        s = field.add(out.get(e, field.zero), c)
        if s == field.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def scale(field, a, c):
    if c == field.zero:
        return {}
    return {e: field.mul(c, v) for e, v in a.items()}


def mul_variable(field, a, idx):
    out = {}
    for e, c in a.items():
        e2 = list(e)
        e2[idx] += 1
        out[tuple(e2)] = c
    return out


def evaluate(field, a, point):
    acc = field.zero
    for e, c in a.items():
        term = c
        for x, k in zip(point, e):
            for _ in range(k):
                term = field.mul(term, x)
        acc = field.add(acc, term)
    return acc


def grlex_key(exp):
    return (sum(exp), exp)


def leading_monomial(a):
    return max(a, key=grlex_key)


def canonicalize(field, a):
    """Content removed and sign normalized: over Q the coefficients become
    coprime integers with positive leading coefficient, over F_p the
    polynomial becomes monic.  A polynomial that is canonical already (the
    common case for chart equations) is returned as it is."""
    if not a:
        return {}
    lead = a[leading_monomial(a)]
    if field.char == 0:
        values = a.values()
        if all(type(c) is int for c in values):
            g = gcd(*values)
            if lead < 0:
                g = -g
            return a if g == 1 else {e: c // g for e, c in a.items()}
        denom_lcm = 1
        for c in values:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        nums = [c * denom_lcm for c in values]
        g = 0
        for n in nums:
            g = gcd(g, int(n))
        unit = Fraction(denom_lcm, g if g else 1)
        if lead < 0:
            unit = -unit
        return {e: field.mul(c, unit) for e, c in a.items()}
    if lead == field.one:
        return a
    unit = field.inv(lead)
    return {e: field.mul(unit, c) for e, c in a.items()}


def frozen(a):
    """Hashable canonical image (sorted by descending monomial)."""
    return tuple(sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True))


def render(a, names):
    if not a:
        return "0"
    bits = []
    for e, c in sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        mono = "*".join(
            f"{names[i]}" + (f"^{k}" if k > 1 else "")
            for i, k in enumerate(e)
            if k > 0
        )
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        bits.append(term)
    out = bits[0]
    for term in bits[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out
