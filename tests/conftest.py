"""Shared fixtures: the reference bases exercised throughout the suite."""

from fractions import Fraction as F

import pytest

from negabeta.language import at_horizon
from negabeta.numerics import BetaSpec, beta_from_poly, beta_from_rational


def golden() -> BetaSpec:
    return beta_from_poly([F(-1), F(-1), F(1)], F(1), F(2))


def plastic() -> BetaSpec:
    # largest root of x^3 - x - 1 (first base of the cascade below golden)
    return beta_from_poly([F(-1), F(-1), F(0), F(1)], F(1), F(2))


def quintic() -> BetaSpec:
    # root of x^5 - 2x^4 - 2x^3 - x^2 + x + 1 in (2, 3); its left-endpoint
    # expansion is 2012 followed by repeating 1
    return beta_from_poly([F(1), F(1), F(-1), F(-2), F(-2), F(1)], F(2), F(3))


def quartic_302() -> BetaSpec:
    # root of x^4 - 3x^3 - 3x^2 - 2x - 1 in (3, 4); expansion 302 then
    # repeating 1
    return beta_from_poly([F(-1), F(-2), F(-3), F(-3), F(1)], F(3), F(4))


def quartic_31021() -> BetaSpec:
    # root of x^4 - 3x^3 - x^2 - 2x + 1 in (1, 4): d = (31021) has odd
    # period 5 and 0 d* = (031020), the exceptional base of Theorem 1
    return beta_from_poly([F(1), F(-2), F(-1), F(-3), F(1)], F(1), F(4))


DEG7 = ([-1, -1, 0, 0, 0, 0, 0, 1], 1, 2)   # x^7 - x - 1, root 1.1127

# the twelve bases of the field and enumeration checks
MATRIX = ["2/1", "3/1", "5/2", "7/2", "3/2", "13/10", "11/10", "golden",
          "plastic", "quintic", "q302", "deg7"]


def matrix_base(name) -> BetaSpec:
    """A fresh base of MATRIX, or the quartic "q31021" outside it."""
    if "/" in name:
        return beta_from_rational(*map(int, name.split("/")))
    return {"golden": golden, "plastic": plastic, "quintic": quintic,
            "q302": quartic_302, "q31021": quartic_31021,
            "deg7": lambda: beta_from_poly(*DEG7)}[name]()


# the grid of the family censuses: every MATRIX base at every length to 22,
# and every p/q with q <= 12 in (1, 4) (137 bases) at lengths 6, 10 and 13
RATIONALS = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1, 4 * q)})
CENSUS_GRID = ([(name, range(1, 23)) for name in MATRIX]
               + [("p/q, q<=12", (6, 10, 13))])


def grid_bases(name):
    """The fresh bases of one row of CENSUS_GRID."""
    if name in MATRIX:
        return [matrix_base(name)]
    return [beta_from_rational(f.numerator, f.denominator) for f in RATIONALS]


@pytest.fixture(scope="session")
def base_matrix():
    """The seven bases used by the oracle-equivalence battery."""
    return {
        "2": beta_from_rational(2, 1),
        "5/2": beta_from_rational(5, 2),
        "3": beta_from_rational(3, 1),
        "golden": golden(),
        "plastic": plastic(),
        "13/10": beta_from_rational(13, 10),
        "3/2": beta_from_rational(3, 2),
    }


@pytest.fixture(scope="session")
def beta_golden():
    return golden()


@pytest.fixture(scope="session")
def beta_plastic():
    return plastic()


@pytest.fixture(scope="session")
def beta_quintic():
    return quintic()


@pytest.fixture(scope="session")
def beta_302():
    return quartic_302()


def stored(store, fn):
    """The results of the `kept_per_run` function fn in a run's store, by
    their arguments."""
    return {args: result for (f, args), result in store.items()
            if f is fn.__wrapped__}


@pytest.fixture
def fresh_references():
    """The store of a run opened for one test, handed to it: every base
    the test reads gets a new `Reference`, whose automata start with empty
    tables, and clearing the store starts them empty again."""
    with at_horizon(512) as run:
        yield run.kept
