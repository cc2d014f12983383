"""Power series: lap counting, zeta functions, structural identities."""

import signal
from contextlib import contextmanager
from fractions import Fraction as F
from functools import partial

import pytest

import oracles
from conftest import CENSUS_GRID, MATRIX, grid_bases, matrix_base, stored
from negabeta import codes, series
from negabeta.errors import NegabetaError, NonIntegerCoefficient
from negabeta.expansion import reference_pair
from negabeta.language import (PeriodTarget, Reference, at_horizon,
                               count_periodic_points, factor_complexity,
                               gamma_n, kneading_series)
from negabeta.numerics import beta_from_rational
from negabeta.series import (IntSeries, denominator_series, lap_series,
                             verify_identities, zeta_shift,
                             zeta_transformation)
from oracles import (derivative_log_counts, reciprocal, series_exp,
                     series_log, zeta_from_counts)


class TestIntSeries:
    def test_reciprocal(self):
        s = IntSeries.from_ints([1, -1, -1])  # 1 - z - z^2
        fib = reciprocal(s).as_ints()
        assert fib == [1, 1, 2]

    def test_exp_log_roundtrip(self):
        s = IntSeries.from_ints([1, 3, 6, 12, 24])
        assert series_exp(series_log(s)).as_ints() == [1, 3, 6, 12, 24]

    def test_as_ints_rejects_fractions(self):
        s = IntSeries((F(1), F(1, 2)))
        with pytest.raises(NonIntegerCoefficient):
            s.as_ints()


class TestDenominator:
    def test_golden(self, beta_golden):
        _, ds = reference_pair(beta_golden)
        assert denominator_series(ds, 5).as_ints() == [1, -1, -1, 0, 0, 0]

    def test_integer_base(self):
        _, ds = reference_pair(beta_from_rational(2, 1))
        # corrected stream repeating 1 0 gives (1 - 2z)/(1 - z)
        got = denominator_series(ds, 4).as_ints()
        assert got == [1, -1, -1, -1, -1]


class TestLaps:
    def test_golden(self, beta_golden):
        assert lap_series(beta_golden, 6).as_ints() == \
            [1, 2, 4, 7, 12, 20, 33]

    def test_five_halves(self):
        assert lap_series(beta_from_rational(5, 2), 3).as_ints() == \
            [1, 3, 8, 20]


class TestZeta:
    def test_golden_fibonacci(self, beta_golden):
        # (1 + z)/(1 - z - z^2): shifted Fibonacci numbers
        got = zeta_transformation(beta_golden, 16).as_ints()
        fib = [1, 2]
        while len(fib) < 17:
            fib.append(fib[-1] + fib[-2])
        assert got == fib[:17]

    def test_integer_base(self):
        b = beta_from_rational(2, 1)
        assert zeta_transformation(b, 4).as_ints() == [1, 3, 6, 12, 24]
        assert zeta_shift(b, 4).as_ints() == [1, 3, 7, 15, 31]

    def test_zeta_equals_lap_relation(self, base_matrix):
        # zeta * (1 - z^2) * extra-cyclotomic factor when periodic = 1/L
        for name, b in base_matrix.items():
            with at_horizon(2048):
                rep = verify_identities(b, order=8)
            assert rep["zeta_vs_lap"]["residual"] == 0, name

    def test_nonperiodic_matches_golden_form(self, beta_golden):
        za = zeta_transformation(beta_golden, 10)
        den = denominator_series(reference_pair(beta_golden)[1], 10)
        prod = za * den
        assert prod.as_ints() == [1, 1] + [0] * 9  # (1+z)


def _with_quartic(bases):
    return {**bases, "q31021": matrix_base("q31021")}


class TestCountsOracle:
    def test_transformation_counts(self, base_matrix):
        # at the quartic d = (31021) and 0 d* = (031020): their rotations are
        # decided apart from the closed walks where 5 or 6 divides n
        for name, b in _with_quartic(base_matrix).items():
            with at_horizon(2048):
                zt = zeta_transformation(b, 48, assume_nonperiodic=True)
                counted = [count_periodic_points(n, b,
                                                 PeriodTarget.TRANSFORMATION)
                           for n in range(1, 49)]
            p = derivative_log_counts(zt)
            assert [int(x) for x in p] == counted, name

    def test_shift_counts(self, base_matrix):
        for name, b in _with_quartic(base_matrix).items():
            with at_horizon(2048):
                zs = zeta_shift(b, 48, assume_nonperiodic=True)
                counted = [count_periodic_points(n, b, PeriodTarget.SHIFT)
                           for n in range(1, 49)]
            p = derivative_log_counts(zs)
            assert [int(x) for x in p] == counted, name

    def test_zeta_from_counts_integral(self, base_matrix):
        for name, b in base_matrix.items():
            with at_horizon(2048):
                counts = [count_periodic_points(n, b,
                                                PeriodTarget.TRANSFORMATION)
                          for n in range(1, 49)]
                zt = zeta_transformation(b, 48, assume_nonperiodic=True)
            z = zeta_from_counts(counts)
            assert z.as_ints() == zt.as_ints(), name


class TestIdentities:
    def test_all_residuals_zero(self, base_matrix):
        for name, b in base_matrix.items():
            with at_horizon(2048):
                rep = verify_identities(b, order=8)
            for ident, r in rep.items():
                assert r["residual"] == 0, (name, ident)

    def test_block_bases_higher_order(self, beta_quintic):
        with at_horizon(2048):
            rep = verify_identities(beta_quintic, order=12)
        assert all(r["residual"] == 0 for r in rep.values())


def _outcome(f, *args):
    try:
        return f(*args)
    except NegabetaError as e:
        return type(e).__name__


@contextmanager
def _hang_guard(seconds):
    """Fail, rather than hang, when the block runs longer than `seconds`."""
    def stop(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCountedFamilies:
    """`verify_identities` reads the family censuses that `codes` counts;
    the oracle reads them off the listed words."""

    @pytest.mark.parametrize("name,orders", CENSUS_GRID,
                             ids=[g[0] for g in CENSUS_GRID])
    def test_report_equals_listing_oracle(self, name, orders):
        for b in grid_bases(name):
            for n in orders:
                assert verify_identities(b, n) == \
                    oracles.verify_identities(b, n), (b, n)

    @pytest.mark.parametrize("name", MATRIX)
    def test_horizon_too_short_where_oracle_raises(self, name):
        b = matrix_base(name)
        for horizon in (6, 9, 12, 16, 24):
            with at_horizon(horizon):
                for n in range(3, 21):
                    assert _outcome(verify_identities, b, n) == \
                        _outcome(oracles.verify_identities, b, n), \
                        (horizon, n)

    @pytest.mark.parametrize("name", ["5/2", "13/10", "plastic"])
    def test_order_64_all_zero(self, name):
        # listing the families took 12 s at 5/2 by order 30, and 39 s at
        # 13/10 and 153 s at the plastic base by order 64
        with _hang_guard(60):
            report = verify_identities(matrix_base(name), 64)
        assert all(r["residual"] == 0 for r in report.values()), report

    def test_lists_no_word(self, monkeypatch):
        calls = []
        for lister in ("build_code_C", "build_delta_odd", "build_delta_i"):
            def counted(*args, _real=getattr(codes, lister), _name=lister):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(codes, lister, counted)
        for name in ("5/2", "13/10", "plastic", "quintic"):
            verify_identities(matrix_base(name), 24)
        assert calls == []
        assert not {"build_code_C", "build_delta_odd",
                    "build_delta_i"} & set(vars(series))


KNEADING = {"lap": (lap_series, oracles.lap_series)} | {
    name: (partial(fast, assume_nonperiodic=True),
           partial(oracle, assume_nonperiodic=True))
    for name, fast, oracle in [
        ("zeta", zeta_transformation, oracles.zeta_transformation),
        ("shift", zeta_shift, oracles.zeta_shift)]}


def _series_outcome(f, b, order):
    """The coefficients of f(b, order), or the error's type and message."""
    try:
        return f(b, order).coeffs
    except NegabetaError as e:
        return type(e).__name__, str(e)


class TestKneadingSeries:
    """The lap and zeta series read one kneading series E = 1/den(d*),
    kept per (d*, order) in the run by `kneading_series`; the oracles
    build each from its own reciprocal."""

    @staticmethod
    def _agree(b, orders):
        for order in orders:
            for name, (fast, oracle) in KNEADING.items():
                assert _series_outcome(fast, b, order) == \
                    _series_outcome(oracle, b, order), (name, order)

    @pytest.mark.parametrize("name", MATRIX)
    def test_matrix_orders_to_64(self, name, fresh_references):
        # every order from 0 to 64, each its own entry in the run's store
        self._agree(matrix_base(name), range(65))

    def test_rationals_orders_to_24(self):
        for b in grid_bases("p/q, q<=12"):
            self._agree(b, range(25))

    @pytest.mark.parametrize("name", MATRIX)
    def test_orders_in_any_order(self, name, fresh_references):
        b = matrix_base(name)
        asked = {order: {key: _series_outcome(fast, b, order)
                         for key, (fast, _) in KNEADING.items()}
                 for order in (10, 64, 20)}
        for order, got in asked.items():
            fresh_references.clear()
            assert got == {key: _series_outcome(fast, b, order)
                           for key, (fast, _) in KNEADING.items()}, order

    @pytest.mark.parametrize("name", MATRIX)
    def test_complexity_is_lap_tail(self, name):
        b = matrix_base(name)
        d_star = Reference.for_beta(b).d_star
        for n in (0, 1, 2, 17, 64):
            assert factor_complexity(n, d_star) == \
                list(lap_series(b, n).coeffs[1:]), n

    @staticmethod
    def _kneading(run):
        """The number of kneading series the run's store holds."""
        return len(stored(run.kept, kneading_series))

    def test_one_recurrence_per_stream_and_order(self):
        laps = {}
        with at_horizon(512) as run:
            for kept, b in enumerate([beta_from_rational(5, 2), gamma_n(0)],
                                     1):
                factor_complexity(64, Reference.for_beta(b).d_star)
                laps[b] = lap_series(b, 64)
                zeta_transformation(b, 64, assume_nonperiodic=True)
                zeta_shift(b, 64, assume_nonperiodic=True)
                assert self._kneading(run) == kept
            # a caller that changed the kept E would change the next
            # reader, and a bounded store would have let the first stream go
            for b, got in laps.items():
                assert lap_series(b, 64) == got
            assert self._kneading(run) == 2

    @pytest.mark.parametrize("name", MATRIX)
    def test_order_past_horizon(self, name):
        b = matrix_base(name)
        for horizon in (5, 8, 11):
            with at_horizon(horizon) as run:
                ref = Reference.for_beta(b)
                self._agree(b, [horizon - 3])
                kept = self._kneading(run)
                for order in (horizon + 1, horizon + 4):
                    for key, (fast, oracle) in KNEADING.items():
                        got = _series_outcome(fast, b, order)
                        assert got == _series_outcome(oracle, b, order), \
                            (horizon, order, key)
                        if not ref.d_star.is_periodic:
                            assert got[0] == "HorizonTooShort", (horizon, key)
                if not ref.d_star.is_periodic:
                    # nothing stored
                    assert self._kneading(run) == kept
                self._agree(b, [horizon - 1, horizon - 4])
