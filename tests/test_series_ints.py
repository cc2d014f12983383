"""Integer power series stay in the integers: every coefficient the dynamics
produce is an `int`, and the ring operations agree with a Fraction-list
reference convolution."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.language import (PeriodTarget, Reference, at_horizon,
                               count_periodic_points)
from negabeta.series import (IntSeries, denominator_series, lap_series,
                             verify_identities, zeta_shift,
                             zeta_transformation)
from oracles import NonUnitConstantTerm, reciprocal, zeta_from_counts


def _all_int(cs) -> bool:
    return all(type(c) is int for c in cs)


class TestDynamicsSeriesAreInts:
    def test_base_matrix(self, base_matrix):
        n = 8
        for name, b in base_matrix.items():
            with at_horizon(2048):
                ref = Reference.for_beta(b)
                counts = [count_periodic_points(k, b,
                                                PeriodTarget.TRANSFORMATION)
                          for k in range(1, n + 1)]
                for s in (denominator_series(ref.d_star, n),
                          lap_series(b, n),
                          zeta_transformation(b, n, assume_nonperiodic=True),
                          zeta_shift(b, n, assume_nonperiodic=True),
                          zeta_from_counts(counts)):
                    assert _all_int(s.coeffs), (name, s.coeffs)
                report = verify_identities(b, order=n)
            assert _all_int(r["residual"] for r in report.values()), name


def _conv(a, b):
    """Truncated product of two coefficient lists, over Fraction."""
    n = len(a)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += F(a[i]) * F(b[j])
    return out


def _series(n: int, unit: bool):
    """Coefficient lists of order n, with constant term +-1 if `unit`."""
    head = st.sampled_from([1, -1]) if unit else st.integers(-9, 9)
    tail = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return st.tuples(head, tail).map(lambda t: [t[0], *t[1]])


PAIRS = st.integers(0, 12).flatmap(
    lambda n: st.tuples(_series(n, False), _series(n, False)))
UNITS = st.integers(0, 12).flatmap(lambda n: _series(n, True))


class TestRingAgainstReference:
    @given(ab=PAIRS)
    @settings(max_examples=150, deadline=None)
    def test_mul_add_sub(self, ab):
        a, b = ab
        sa, sb = IntSeries.from_ints(a), IntSeries.from_ints(b)
        prod = sa * sb
        assert list(prod.coeffs) == _conv(a, b)
        assert list((sa + sb).coeffs) == [F(x + y) for x, y in zip(a, b)]
        assert list((sa - sb).coeffs) == [F(x - y) for x, y in zip(a, b)]
        for s in (prod, sa + sb, sa - sb):
            assert _all_int(s.coeffs)

    @given(a=UNITS)
    @settings(max_examples=150, deadline=None)
    def test_reciprocal_of_unit(self, a):
        s = IntSeries.from_ints(a)
        inv = reciprocal(s)
        assert _all_int(inv.coeffs)
        assert s * inv == IntSeries.one(s.order)
        assert _conv(a, inv.coeffs) == [1] + [0] * s.order

    @given(c0=st.integers(-9, 9).filter(lambda c: c not in (1, -1)),
           rest=st.lists(st.integers(-9, 9), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_rejects_non_unit(self, c0, rest):
        with pytest.raises(NonUnitConstantTerm):
            reciprocal(IntSeries.from_ints([c0] + rest))
