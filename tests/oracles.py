"""Brute-force oracles for the language layer and the cascade.

These are the direct definitions the automaton in `negabeta.language`
replaces: a depth-first search that rebuilds the list of tied suffixes for
every prefix; a periodic-point count that compares every cyclic shift of
every candidate word with the bounds as an infinite sequence, one that
walks every admissible word on the automaton and feeds it round its cycle,
and one that makes a pass of its own for each period n, as the package did
before one pass counted every period;
and the cascade level by comparing the base with the algebraic numbers
gamma_n, ordered by bisecting both isolating intervals (`cross_compare`).
They are slow (about beta^n nodes, or root isolation of degree about 2^n)
and exist only to check the fast code against.  The digit-string rule of
`order.format_digits` as it was, one `str` per digit joined through a
lambda, follows the automaton's oracles.

The digit loop of `expand` is here as it was before field elements became
integer vectors: coordinates are tuples of Fraction, products are reduced
by polynomial division, an inverse is a linear solve, and l_beta is rebuilt
for every digit.  Its step on field elements (a reduced difference with
l_beta, `fe_floor`, the digit subtracted as a field element) and the plot's
cylinders, each built from scratch, are here too, with `t_step`: one point
of the integer loop of `expand` as a map on field elements, which the
tests walk orbits with, and that loop at an algebraic base as it was
before it carried a dyadic enclosure (`exact_orbit`): one exact floor per
digit.

The halving of `BetaSpec.refine` as it was, with the minimal polynomial
evaluated at the midpoint in Fractions (`fraction_halvings`, by `peval`,
the Fraction Horner that `numerics` used before it read every sign with
`_sign_at`), and the endpoint powers each raised on its own
(`endpoint_powers`) are here too.

The gaps of the cascade are here as the paper states them, one at a time
on an orbit of `field_t_step`, with the fixed point of the morphism, the
digit patterns of points inside a gap and the words forbidden in the
support; so are beta as a field element and the automaton's words as
tuples with their state pairs.

The prefix-code predicate follows, then the code families listed depth
first as `codes` built them before one construction both counted and
listed them: block chains walked over the blocks, each followed by a tail
it admits, Delta^(i) closed by its block and wrapped round, and C walked
over concatenations of Delta_odd words.  The Kraft sum of a whole family,
which only the tests read, follows; then `reciprocal`, the inverse of an
integer series with a unit constant term as `IntSeries.reciprocal` took
it (and `NonUnitConstantTerm`, which it and `series_log` raise), and the
lap and zeta series as each was built before they read one kneading
series: the kneading denominator rebuilt digit by digit, times its sparse
factors, and inverted by `reciprocal` for every series; then the series
links between periodic-point counts p_n and a zeta function, z zeta'/zeta
= sum p_n z^n (Lind-Marcus, *An Introduction to Symbolic Dynamics and
Coding*, 1995, 6.4), as integer recurrences, with the Fraction-valued log
and exp they replace.  The identity check that reads its censuses off
those listings, as `series.verify_identities` did before it counted them,
and its lap and zeta series and 1/den(d) off those reciprocals, closes
the file.
"""

import math
from fractions import Fraction
from operator import mul

from negabeta.codes import (GammaFamilies, _gamma0_digits, _gamma0p_digits,
                            delta_i_indices, family_blocks,
                            kraft_partial_sums)
from negabeta.errors import (HorizonTooShort, IndexOutOfRange, NegabetaError,
                             NonIntegerCoefficient, UndecidedAtHorizon)
from negabeta.expansion import _orbit
from negabeta.gaps import GapInterval, cascade_classify
from negabeta.language import (DEAD, PeriodTarget, Reference, Variant,
                               _rotations_within_bounds, cycle_ties,
                               gamma_n, language_census, morphism_words)
from negabeta.numerics import (FieldElement, RationalInterval, fe_compare,
                               fe_floor, floor_or_sign, from_rational, l_beta,
                               zero)
from negabeta.order import (SymbolicSequence, alt_compare_seq, known_digit,
                            purely_periodic)
from negabeta.series import (IntSeries, denominator_series, geometric,
                             one_minus_z_pow)
from negabeta.wordset import WordSet


def _push_digit(states, digit, pos, ref, variant):
    """Extend all tracked suffixes by one digit; None means inadmissible.

    A state is a list of (start, tied_lower, tied_upper), one per suffix of
    the word that is still digit-for-digit tied with a bound."""
    lower = ref.d if variant is Variant.ITO_SADAHIRO else ref.d_star
    out = []
    for start, tl, tu in states + [(pos, True, True)]:
        j = pos - start + 1  # index of the new digit inside this suffix
        if tl:
            c = known_digit(lower, j)
            if digit != c:
                s = digit - c if j % 2 == 0 else c - digit
                if s < 0:  # suffix fell below the lower bound
                    return None
                tl = False
        if tu:
            c = 0 if j == 1 else known_digit(ref.d_star, j - 1)  # 0 d*
            if digit != c:
                s = digit - c if j % 2 == 0 else c - digit
                if s > 0:  # suffix rose above the upper bound
                    return None
                tu = False
        if tl or tu:
            out.append((start, tl, tu))
    return out


def is_admissible(w, beta, variant=Variant.CORRECTED):
    ref = Reference.for_beta(beta)
    states = []
    for pos, digit in enumerate(w, start=1):
        if not 0 <= digit <= ref.d1:
            return False
        states = _push_digit(states, digit, pos, ref, variant)
        if states is None:
            return False
    return True


def words(n, beta, variant=Variant.CORRECTED):
    """All admissible words of length n, in lexicographic order."""
    ref = Reference.for_beta(beta)
    out = []

    def rec(word, states):
        if len(word) == n:
            out.append(word)
            return
        for digit in range(ref.d1 + 1):
            nxt = _push_digit(states, digit, len(word) + 1, ref, variant)
            if nxt is not None:
                rec(word + (digit,), nxt)

    rec((), [])
    return out


def census(n, beta, variant=Variant.CORRECTED):
    """Counts of admissible words of each length 1..n, by one DFS pass."""
    ref = Reference.for_beta(beta)
    counts = [0] * (n + 1)

    def rec(length, states):
        counts[length] += 1
        if length == n:
            return
        for digit in range(ref.d1 + 1):
            nxt = _push_digit(states, digit, length + 1, ref, variant)
            if nxt is not None:
                rec(length + 1, nxt)

    rec(0, [])
    return counts[1:]


def periodic_points(n, beta, target):
    """Words w of length n all of whose rotations, repeated forever, lie
    within d <= . <= 0 d* (strictly below 0 d* for the transformation)."""
    ref = Reference.for_beta(beta)
    lower, upper = ref.d, ref.upper_seq()  # a truncated d has horizon digits
    if not upper.is_periodic:  # 0 d* has one more; compare to the horizon
        upper = SymbolicSequence(upper.prefix[:ref.horizon], None)
    strict_upper = target is PeriodTarget.TRANSFORMATION
    count = 0
    for w in words(n, beta, Variant.ITO_SADAHIRO):
        ok = True
        for m in range(n):
            seq = SymbolicSequence((), w[m:] + w[:m])
            try:
                if alt_compare_seq(lower, seq) > 0:
                    ok = False
                    break
                cu = alt_compare_seq(seq, upper)
            except UndecidedAtHorizon as e:
                raise HorizonTooShort(str(e)) from e
            if cu > 0 or (strict_upper and cu == 0):
                ok = False
                break
        count += ok
    return count


def periodic_points_by_walk(n, beta, target):
    """The count by walking every admissible word of length n on the
    automaton and feeding it round its cycle, about beta^n words."""
    ref = Reference.for_beta(beta)
    if ref.d.is_periodic:
        # eventually periodic sequences tied for this long are equal
        bound = max(len(s.prefix) + math.lcm(n, len(s.period))
                    for s in (ref.d, ref.upper_seq())) + 1
    else:
        bound = ref.horizon
    aut = ref.automaton(Variant.ITO_SADAHIRO)
    strict_upper = target is PeriodTarget.TRANSFORMATION
    ties = {}
    return sum(_cycles_within_bounds(aut, w, i, bound, strict_upper, ties)
               for w, i in aut.walk(n))


def automaton_words(aut, n):
    """`aut.walk(n)`, with each word as a tuple and its state's pair."""
    return ((tuple(w), aut.states[i]) for w, i in aut.walk(n))


def _cycles_within_bounds(aut, w, i, bound, strict_upper, ties):
    """Does w^inf stay within the bounds (and off 0 d* if strict_upper)?

    The suffixes begun in the copy of w that led to state i are the cyclic
    shifts of w^inf.  Feed w until each has left its ties or been tied for
    `bound` digits: equal to the bound if d is periodic, else undecided.
    `ties` keeps what is read of each state's tie lengths, once per state.
    """
    n = fed = len(w)
    while True:
        if (tie := ties.get(i)) is None:
            j, k = aut.states[i]
            tie = ties[i] = (max(j, k) >= bound and not aut.ref.d.is_periodic,
                             max(_below(aut.lower, j, bound),
                                 _below(aut.upper, k, bound)),
                             k >= bound)
        undecided, longest_below, upper_at_bound = tie
        if undecided:
            raise HorizonTooShort(
                f"a cyclic shift of {w} agrees with a bound through digit "
                f"{bound}")
        if longest_below <= fed - n:
            return not (strict_upper and upper_at_bound)
        if (i := (aut.trans[i] or aut._advance(i))[w[fed % n]]) == DEAD:
            return False
        fed += 1


def _below(b, s, bound):
    """The longest tie on the chain of s in the Knuth-Morris-Pratt table of
    the automaton's bound b that is shorter than `bound` (positive), or 0."""
    while s >= bound:
        s = b.pi[s]
    return s


def periodic_points_per_n(n, beta, target):
    """The count of period-n points as `count_periodic_points` made it
    before the automaton kept its closed walks: a breadth-first search of
    the states within n's caps (`cycle_ties`) and a pass of n steps of its
    own, whose trace after the last step is the closed walks of length n,
    with the rotations of a periodic bound checked apart."""
    if n < 1:
        return 0
    (lower_cap, upper_cap), rotations = cycle_ties(n, beta)
    aut = Reference.for_beta(beta).automaton(Variant.ITO_SADAHIRO)
    index, order = {0: 0}, [0]
    for i in order:
        for j in aut.trans[i] or aut._advance(i):
            if j != DEAD and j not in index:
                lower, upper = aut.states[j]
                if lower <= lower_cap and upper <= upper_cap:
                    index[j] = len(order)
                    order.append(j)
    succ = [[index[j] for j in aut.trans[i] if j in index] for i in order]
    width = n * len(aut.alphabet).bit_length() + 1
    walks = [1 << width * a for a in range(len(order))]
    for _ in range(n):
        nxt = [0] * len(order)
        for a, fields in enumerate(walks):
            for b in succ[a]:
                nxt[b] += fields
        walks = nxt
    mask = (1 << width) - 1
    return (sum(fields >> width * a & mask for a, fields in enumerate(walks))
            + _rotations_within_bounds(aut, rotations, target))


def format_digits(prefix, period=None):
    """The digit string `parse_digits` reads back: digits run together
    while all are at most 9, else comma-separated, with a trailing comma
    on a block of one digit."""
    big = any(d > 9 for d in tuple(prefix) + tuple(period or ()))
    sep = "," if big else ""
    fmt = lambda w: sep.join(map(str, w)) + (sep if len(w) == 1 else "")
    out = fmt(prefix)
    if period is not None:
        out += f"({fmt(period)})"
    return out


def cross_compare(a, b):
    """Compare two bases that may live in different number fields."""
    if a.kind == "rational" and b.kind == "rational":
        return (a.value > b.value) - (a.value < b.value)
    if a == b:
        return 0
    if a.kind == "algebraic" and b.kind == "algebraic" and a.minpoly == b.minpoly:
        # two roots of one polynomial are ordered by their indices
        return (a.root_index > b.root_index) - (a.root_index < b.root_index)
    # distinct minimal polynomials (or rational vs irrational): values differ
    while True:
        ia, ib = a.interval(), b.interval()
        if ia.hi < ib.lo:
            return -1
        if ib.hi < ia.lo:
            return 1
        a.refine()
        b.refine()


def numeric_cascade_level(beta):
    """The cascade level by exact comparison of beta with the algebraic
    gamma_1, gamma_2, ...: the n with gamma_{n+1} < beta <= gamma_n."""
    if cross_compare(beta, gamma_n(0)) >= 0:
        raise IndexOutOfRange("base is not below the golden ratio")
    n = 0
    while (side := cross_compare(beta, gamma_n(n + 1))) < 0:
        n += 1
    return n if side > 0 else n + 1


def beta_element(beta):
    """beta itself as a field element."""
    return beta.constants.beta


def refine_below(beta, width):
    """Halve the isolating interval of beta until it is at most `width`
    wide, as a long run of decisions would leave it."""
    while beta.interval().width > width:
        beta.refine()
    return beta.interval()


def peval(p, x):
    """The polynomial p (ascending coefficients) at the rational x, by
    Horner in Fractions."""
    acc = Fraction(0)
    for c in reversed(tuple(p)):
        acc = acc * x + c
    return acc


def fraction_halvings(beta, count):
    """The isolating intervals of `count` successive halvings of the
    algebraic base beta, by the rule `BetaSpec.refine` took before it
    evaluated in integers: the minimal polynomial at the midpoint in
    Fractions, its sign against that at the lower end, read once."""
    m, iv = beta.minpoly, beta.interval()
    lo_negative = peval(m, iv.lo) < 0
    out = []
    for _ in range(count):
        mid = iv.midpoint()
        if lo_negative == (peval(m, mid) < 0):
            iv = RationalInterval(mid, iv.hi)
        else:
            iv = RationalInterval(iv.lo, mid)
        out.append(iv)
    return out


def endpoint_powers(beta):
    """`BetaSpec._endpoint_powers` as it was, each a^i q^(n-1-i) raised on
    its own."""
    iv = beta.interval()
    n, q = beta.degree, math.lcm(iv.lo.denominator, iv.hi.denominator)
    qpow = [q ** (n - 1 - i) for i in range(n)]
    ends = [[(e.numerator * (q // e.denominator)) ** i * qp
             for i, qp in enumerate(qpow)] for e in (iv.lo, iv.hi)]
    return ends[0], ends[1], qpow[0]


# ---------------------------------------------------------------------------
# Q(beta) on Fraction tuples, and the digit loop of expand
# ---------------------------------------------------------------------------

def modulus(beta):
    """The polynomial beta is a root of: its minimal one, or q x - p."""
    if beta.kind == "rational":
        return (-beta.value.numerator, beta.value.denominator)
    return beta.minpoly


def reduce_mod(poly, m):
    """poly mod m, as a tuple of deg(m) Fractions."""
    out = [Fraction(c) for c in poly]
    out += [Fraction(0)] * (len(m) - 1 - len(out))
    for k in range(len(out) - 1, len(m) - 2, -1):  # clear x^k, k >= deg m
        c = out[k] / m[-1]
        for i, mi in enumerate(m if c else ()):
            out[k - len(m) + 1 + i] -= c * mi
    return tuple(out[:len(m) - 1])


def mul_mod(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return reduce_mod(prod, m)


def inverse_mod(a, m):
    """The s with s * a = 1 mod m: Gaussian elimination on the matrix
    whose column j is a x^j mod m."""
    n = len(m) - 1
    cols = [reduce_mod((0,) * j + tuple(a), m) for j in range(n)]
    rows = [[cols[j][i] for j in range(n)] + [Fraction(i == 0)]
            for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return tuple(row[-1] for row in rows)


def _sign_or_floor(coeffs, beta, floor):
    """Exact sign (or floor) of sum coeffs[i] beta^i: evaluate over the
    isolating interval and bisect until the answer is certain."""
    while True:
        iv = beta.interval()
        lo = hi = Fraction(0)
        for i, c in enumerate(coeffs):
            a, b = c * iv.lo ** i, c * iv.hi ** i
            lo, hi = lo + min(a, b), hi + max(a, b)
        if floor and math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        if not floor and (lo > 0 or hi < 0 or lo == hi == 0):
            return (lo > 0) - (hi < 0)
        beta.refine()


def _sub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def _endpoints(beta):
    m = modulus(beta)
    b = reduce_mod((0, 1), m)
    inv = inverse_mod(tuple(c + (i == 0) for i, c in enumerate(b)), m)
    return tuple(-c for c in mul_mod(b, inv, m)), inv   # l_beta, r_beta


def expand_digits(x, beta, max_digits=512):
    """(int_len, digits, index where the period starts or None) of the
    point x (a Fraction tuple) as the loop of expand made them."""
    m = modulus(beta)
    neg_beta = tuple(-c for c in reduce_mod((0, 1), m))
    neg_inv = inverse_mod(neg_beta, m)
    int_len = 0
    while True:
        lo, hi = _endpoints(beta)
        if (_sign_or_floor(_sub(x, lo), beta, False) >= 0
                and _sign_or_floor(_sub(x, hi), beta, False) < 0):
            break
        x, int_len = mul_mod(x, neg_inv, m), int_len + 1
    digits, seen = [], {}
    while len(digits) < max(max_digits, int_len):
        if x in seen:
            return int_len, digits, seen[x]
        seen[x] = len(digits)
        y = mul_mod(neg_beta, x, m)
        digit = _sign_or_floor(_sub(y, _endpoints(beta)[0]), beta, True)
        digits.append(digit)
        x = (y[0] - digit,) + y[1:]
    return int_len, digits, None


# ---------------------------------------------------------------------------
# the digit step, as one integer step and in field-element arithmetic, and
# the plot's cylinders
# ---------------------------------------------------------------------------

def t_step(x, beta):
    """One application of T: (digit, T(x)), by the integer step `_orbit`
    of `expand` run for one point from z = x - l_beta, with T(x) = z' +
    l_beta."""
    left = beta.constants.left
    z = x - left
    (digit,), _, (num, den) = _orbit(beta, z.num, z.den, 1)
    return digit, FieldElement(beta, num, den, 1) + left


def exact_orbit(beta, num, den, steps):
    """`_orbit` at an algebraic base as it was before the orbit carried a
    dyadic enclosure of beta(1-z): every digit by `floor_or_sign` on the
    exact vector, and every point reduced by its gcd with `step_gcd`."""
    m, bound = beta.modulus, beta.step_gcd
    low, lead = m[:-1], m[-1]
    digits, seen = [], {}
    for i in range(steps):
        if (j := seen.setdefault((num, den), i)) != i:
            return digits, j, (num, den)
        w = (0, num[0] - den, *num[1:])
        top = w[-1]
        v = [top * a - lead * c for a, c in zip(low, w)]
        den *= lead
        digit = floor_or_sign(beta, v, den)
        digits.append(digit)
        v[0] -= digit * den
        g = math.gcd(bound, den, *v)
        if g > 1:
            num, den = tuple([c // g for c in v]), den // g
        else:
            num = tuple(v)
    return digits, None, (num, den)


def field_t_step(x, beta):
    """(digit, T(x)) by field-element operations: y = -beta x, the floor of
    the reduced y - l_beta, and y minus the digit as a field element."""
    y = x.times_neg_beta()
    digit = fe_floor(y - beta.constants.left)
    return digit, y - from_rational(beta, digit)


def cylinder_lap(beta, w):
    """(x0, x1, T^n x0, T^n x1) for the cylinder [x0, x1] of the word w of
    length n, from scratch: the branch interval of the last digit is pulled
    back through the others, each time clipped to that digit's branch."""
    c = beta.constants

    def branch(k):
        lo = (c.left + from_rational(beta, k + 1)) * c.neg_inv
        hi = (c.left + from_rational(beta, k)) * c.neg_inv
        return (c.left if fe_compare(lo, c.left) < 0 else lo,
                c.right if fe_compare(hi, c.right) > 0 else hi)

    lo, hi = branch(w[-1])
    for k in reversed(w[:-1]):
        plo = (hi + from_rational(beta, k)) * c.neg_inv
        phi = (lo + from_rational(beta, k)) * c.neg_inv
        blo, bhi = branch(k)
        lo = plo if fe_compare(plo, blo) > 0 else blo
        hi = phi if fe_compare(phi, bhi) < 0 else bhi
    ends = [lo, hi]
    for k in w:
        ends = [e.times_neg_beta() - from_rational(beta, k) for e in ends]
    return lo, hi, *ends


# ---------------------------------------------------------------------------
# the cascade: the morphism's fixed point, gaps, forbidden words
# ---------------------------------------------------------------------------

def psi_fixed_point(length):
    """Prefix of the fixed point psi^inf(1) = 100111001001..."""
    w = (1,)
    while len(w) < length:
        w = tuple(d for c in w for d in ((1, 0, 0) if c == 1 else (1,)))
    return w[:length]


def gap_intervals(beta, k, i):
    """The gap A_{k,i} = [s_{|u_k|+i}, s_{|u_k|+|u_{k-1}|+i}) (endpoints
    swapped for odd i), where s_t = T^t(l_beta) by `field_t_step`.

    Requires 0 <= k < max(n, 1) at cascade level n and 0 <= i < |u_{k-1}|
    (|u_{-1}| = 1)."""
    valid = range(max(cascade_classify(beta), 1))
    if k not in valid:
        raise IndexOutOfRange(f"k={k} outside valid levels {list(valid)}")
    uk, ukm1 = morphism_words(k)[0], morphism_words(k - 1)[0]
    if not 0 <= i < len(ukm1):
        raise IndexOutOfRange(f"i={i} outside [0, {len(ukm1)})")
    a = len(uk) + i
    b = a + len(ukm1)
    orbit = [l_beta(beta)]
    while len(orbit) <= b:
        orbit.append(field_t_step(orbit[-1], beta)[1])
    left_i, right_i = (a, b) if i % 2 == 0 else (b, a)
    return GapInterval(k, i, left_i, right_i, orbit[left_i], orbit[right_i])


def gap_prefix_patterns(k):
    """Expansions of points inside a level-k gap start with
    sigma^i(u_{k-1}) u_{k-1} u_{k-1} or sigma^i(u_{k-1}) u_k u_k."""
    ukm1, _ = morphism_words(k - 1)
    uk, _ = morphism_words(k)
    pats = []
    for i in range(len(ukm1)):
        tail = ukm1[i:]
        pats.append(tail + ukm1 + ukm1)
        pats.append(tail + uk + uk)
    return pats


def forbidden_words(n):
    """Words forbidden in the support language at cascade level n:
    sigma^i(u_k) u_k u_k u_k and sigma^i(u_k) u_{k+1} u_{k+2} for
    -1 <= k < n and 0 <= i < |u_k| (u_{-1} = 0).

    These are forbidden in the support of the maximal-entropy measure (the
    sub-shift coded at level n), not in the full admissible language."""
    out = []
    for k in range(-1, n):
        uk = morphism_words(k)[0]
        uk1 = morphism_words(k + 1)[0]
        uk2 = morphism_words(k + 2)[0]
        for i in range(len(uk)):
            tail = uk[i:]
            out.append(tail + uk + uk + uk)
            out.append(tail + uk1 + uk2)
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# codes and series
# ---------------------------------------------------------------------------

def is_prefix_code(ws):
    """No word is a proper prefix of another (sorted-adjacent check)."""
    words = ws.words  # already sorted
    for a, b in zip(words, words[1:]):
        if len(a) < len(b) and b[:len(a)] == a:
            return False
    return True


def _block_chains(bs, blocks, budget, strict_link):
    """All nonempty chains of `blocks` whose words fit in `budget` letters.

    Adjacent chains k_i -> k_{i+1} must satisfy p_{k_i} < 2 n_{k_{i+1}} - 1
    (strict) or <= (non-strict) depending on `strict_link`.
    Yields (chain, concatenated word)."""
    items = [(b, bs.prefix(2 * b.n - 1)) for b in blocks
             if 2 * b.n - 1 <= budget]
    stack = [((), ())]  # depth first, each chain before its extensions
    while stack:
        chain, word = stack.pop()
        if chain:
            yield chain, word
        for b, bw in reversed(items):
            if len(word) + len(bw) > budget:
                continue
            if chain:
                prev = chain[-1]
                lim = 2 * b.n - 1
                if not (prev.p < lim if strict_link else prev.p <= lim):
                    continue
            stack.append((chain + (b,), word + bw))


def _chain_tails(bs, max_len, tails, ok):
    """Every strictly linked block chain followed by a tail y with
    ok(last block of the chain, y), within max_len letters."""
    tails = sorted(tails, key=len)
    if not tails:
        return []
    out = []
    for chain, word in _block_chains(bs, bs.blocks, max_len - len(tails[0]),
                                     strict_link=True):
        for y in tails:
            if len(word) + len(y) > max_len:
                break
            if ok(chain[-1], y):
                out.append(word + y)
    return out


def _gamma0_words(bs, max_len):
    out = []
    for n in range(0, max_len):
        digits = _gamma0_digits(bs, n)
        if digits:
            head = bs.prefix(n)
            out += [head + (j,) for j in digits]
    return out


def _gamma0p_words(bs, max_len):
    out = []
    for b in bs.blocks:
        length = 2 * b.n + b.p
        if length <= max_len:
            head = bs.prefix(length - 1)
            out += [head + (j,) for j in _gamma0p_digits(bs, b)]
    return out


def gamma(d, max_len):
    """Gamma = Gamma0 ∪ Gamma0' ∪ Gamma1 ∪ Gamma1', listed depth first."""
    bs = family_blocks(d, max_len)
    g0 = _gamma0_words(bs, max_len)
    g0p = _gamma0p_words(bs, max_len)
    g1 = _chain_tails(bs, max_len, g0, lambda last, y: len(y) >= last.p + 2)
    # Gamma1': a Gamma0' word of block t (its length is 2n_t + p_t) after a
    # chain whose last block can legally precede t
    owner = {2 * b.n + b.p: b for b in bs.blocks}
    g1p = _chain_tails(bs, max_len, g0p,
                       lambda last, y: last.p < 2 * owner[len(y)].n - 1)
    return GammaFamilies(*(WordSet.from_words(w, max_len)
                           for w in (g0, g0p, g1, g1p, g0 + g0p + g1 + g1p)))


def delta_odd(d, max_len):
    """Odd-length right-universal prefixes of d, plus block-prefixed ones."""
    bs = family_blocks(d, max_len)
    d0 = [bs.prefix(ell) for ell in range(1, max_len + 1, 2)
          if bs.window_ok(ell)]
    words = d0 + _chain_tails(bs, max_len, d0, lambda last, x: len(x) > last.p)
    return WordSet.from_words(words, max_len)


def delta_evn(d, max_len):
    """Even-length prefixes of d (including the empty word, flagged), plus
    block-prefixed ones."""
    bs = family_blocks(d, max_len)
    d0 = [bs.prefix(ell) for ell in range(0, max_len + 1, 2)]
    words = d0 + _chain_tails(bs, max_len, d0, lambda last, x: True)
    return WordSet.from_words(words, max_len, includes_empty=True)


def delta_i(d, i, max_len):
    """Delta^(i): the chains B_{t_1} .. B_{t_m} with t_m = i, every other
    t_k > i, non-strict links and the wrap-around p_{t_m} < 2 n_{t_1} - 1."""
    bs = family_blocks(d, max_len)
    if not 1 <= i <= len(bs.blocks):
        return WordSet.from_words([], max_len)
    last = bs.blocks[i - 1]
    last_w = bs.prefix(2 * last.n - 1)
    # B_i alone wraps around to itself
    fits = len(last_w) <= max_len and last.p < 2 * last.n - 1
    words = [last_w] if fits else []
    for chain, word in _block_chains(bs, bs.blocks[i:], max_len - len(last_w),
                                     strict_link=False):
        # B_i closes the chain: link to it, and wrap around to the first block
        if chain[-1].p <= 2 * last.n - 1 and last.p < 2 * chain[0].n - 1:
            words.append(word + last_w)
    return WordSet.from_words(words, max_len)


def code_c(beta, max_len):
    """C above the golden ratio (`code_c_words`); {0} otherwise."""
    ref = Reference.for_beta(beta)
    if ref.golden_side <= 0:
        return WordSet.from_words([(0,)] if max_len >= 1 else [], max_len)
    return code_c_words(ref.d, max_len)


def code_c_words(d, max_len):
    """Delta_odd^* Gamma_{>=2} ∪ Gamma on the stream d, walked depth first
    over concatenations of Delta_odd words."""
    gam = gamma(d, max_len).gamma.words
    words = set(gam)
    tails = [y for y in gam if len(y) >= 2]
    odd_words = sorted(delta_odd(d, max_len).words, key=len)
    stack = [()]  # concatenations of Delta_odd words
    while stack:
        prefix = stack.pop()
        for x in odd_words:
            nw = prefix + x
            if len(nw) > max_len - 2:
                break  # odd_words sorted by length; no shorter one follows
            for y in tails:
                if len(nw) + len(y) <= max_len:
                    words.add(nw + y)
            stack.append(nw)
    return WordSet.from_words(words, max_len)


def kraft_sum_exact(ws, beta):
    """sum over words of beta^-|word|, words of length <= complete_to."""
    sums = kraft_partial_sums(ws, beta)
    return sums[-1] if sums else zero(beta)


def kraft_sum(ws, beta):
    """The Kraft sum enclosed in an interval of width 10^-6."""
    return kraft_sum_exact(ws, beta).enclosure(Fraction(1, 10**6))


class NonUnitConstantTerm(NegabetaError):
    """Power-series reciprocal/log needs constant term 1 (or a unit)."""


def reciprocal(s):
    """1/s for a unit constant term u = +-1, so that 1/u = u and the
    coefficients stay integers."""
    u = s.coeffs[0]
    if u not in (1, -1):
        raise NonUnitConstantTerm("reciprocal needs constant term 1 or -1")
    c, out = s.coeffs, [u]
    for m in range(1, s.order + 1):
        out.append(-u * sum(map(mul, c[1:m + 1], reversed(out))))
    return IntSeries(tuple(out))


def lap_series(beta, order):
    """1 / ((1-z) den(z)), den = 1 - sum (-1)^n (d*_{n-1}-d*_n) z^n."""
    den = denominator_series(Reference.for_beta(beta).d_star, order)
    return reciprocal(one_minus_z_pow(1, order) * den)


def zeta_transformation(beta, order, assume_nonperiodic=False):
    """(1+z) / den(z), with a factor 1 - z^k on den's side when d is purely
    periodic of period k."""
    ref = Reference.for_beta(beta)
    d = ref.d
    if not d.is_periodic and not assume_nonperiodic:
        raise HorizonTooShort(
            "tail of d unknown at this horizon; pass assume_nonperiodic=True "
            "to treat it as aperiodic")
    numer = IntSeries.from_ints([1, 1], order)
    den = denominator_series(ref.d_star, order)
    if purely_periodic(d):
        den = one_minus_z_pow(len(d.period), order) * den
    return numer * reciprocal(den)


def zeta_shift(beta, order, assume_nonperiodic=False):
    """The transformation zeta times 1/(1 - z^{p+1}) when d is purely
    periodic of odd period p."""
    p = Reference.for_beta(beta).odd_period
    z = zeta_transformation(beta, order, assume_nonperiodic)
    if p is not None:
        return z * reciprocal(one_minus_z_pow(p + 1, order))
    return z


def derivative_log_counts(zeta):
    """p_1 .. p_N with z zeta'/zeta = sum p_n z^n, as the integer series
    (sum n zeta_n z^n) * reciprocal(zeta): the periodic-point counts that
    a zeta function with constant term 1 encodes."""
    dz = IntSeries(tuple(n * c for n, c in enumerate(zeta.coeffs)))
    return list((dz * reciprocal(zeta)).coeffs[1:])


def zeta_from_counts(counts):
    """The zeta function exp(sum p_n z^n / n) of the counts p_1 .. p_N,
    by n zeta_n = sum_{k=1..n} p_k zeta_{n-k}; a division by n that is not
    exact raises NonIntegerCoefficient."""
    z = [1]
    for n in range(1, len(counts) + 1):
        q, r = divmod(sum(counts[k - 1] * z[n - k]
                          for k in range(1, n + 1)), n)
        if r:
            raise NonIntegerCoefficient(
                f"coefficient {n} of the zeta function is not an integer")
        z.append(q)
    return IntSeries(tuple(z))


def series_log(s):
    """The coefficients of log s, as Fractions, for s with constant term 1."""
    if s.coeffs[0] != 1:
        raise NonUnitConstantTerm("log needs constant term 1")
    n = s.order
    g = [0] * (n + 1)
    for m in range(1, n + 1):
        t = sum(k * g[k] * s.coeffs[m - k] for k in range(1, m))
        g[m] = s.coeffs[m] - Fraction(t, m)
    return tuple(g)


def series_exp(cs):
    """exp of the series with coefficients cs (cs[0] = 0), as an IntSeries:
    a coefficient that is not an integer raises NonIntegerCoefficient."""
    if cs[0] != 0:
        raise ValueError("exp needs zero constant term")
    f = [Fraction(1)] + [Fraction(0)] * (len(cs) - 1)
    for m in range(1, len(cs)):
        f[m] = Fraction(sum(k * cs[k] * f[m - k] for k in range(1, m + 1)), m)
    if any(c.denominator != 1 for c in f):
        raise NonIntegerCoefficient("exp has a coefficient that is not an integer")
    return IntSeries(tuple(c.numerator for c in f))


def census_gf(census, order):
    """The generating function of a {length: count} census, to order."""
    cs = [0] * (order + 1)
    for n, b in census.items():
        if n <= order:
            cs[n] = b
    return IntSeries(tuple(cs))


def verify_identities(beta, order=10):
    """`series.verify_identities` with the censuses of C, Delta_odd and each
    Delta^(i) taken from their listed words."""
    ref = Reference.for_beta(beta)
    stream = ref.d_star
    report = {}

    c_gf = census_gf(code_c(beta, order).census, order)
    a_gf = census_gf(delta_odd(stream, order).census, order)
    prod = (IntSeries.one(order) - c_gf) * (IntSeries.one(order) - a_gf)
    prod = prod * IntSeries.from_ints([1, 1], order)
    for i in delta_i_indices(stream, order):
        p_gf = census_gf(delta_i(stream, i, order).census, order)
        prod = prod * (IntSeries.one(order) - p_gf)

    den_star = denominator_series(ref.d_star, order)
    report["factorization"] = {
        "order": order,
        "residual": den_star.max_abs_diff(prod),
    }

    lap = lap_series(beta, order)
    h = language_census(order, beta, Variant.CORRECTED)
    h_gf = IntSeries.from_ints([1] + h, order)
    report["census"] = {
        "order": order,
        "residual": (prod * h_gf).max_abs_diff(geometric(order)),
    }
    report["lap_census"] = {
        "order": order,
        "residual": h_gf.max_abs_diff(lap),
    }

    zeta = zeta_transformation(beta, order,
                               assume_nonperiodic=not ref.d.is_periodic)
    lhs = zeta
    if purely_periodic(ref.d):
        lhs = zeta * one_minus_z_pow(len(ref.d.period), order)
    rhs = one_minus_z_pow(2, order) * lap
    report["zeta_vs_lap"] = {"order": order, "residual": lhs.max_abs_diff(rhs)}

    if ref.odd_period is not None:
        two_p = ref.odd_period + 1
        h_is = language_census(order, beta, Variant.ITO_SADAHIRO)
        h_is_gf = IntSeries.from_ints([1] + h_is, order)
        rhs = (one_minus_z_pow(two_p, order) * geometric(order)
               * reciprocal(denominator_series(ref.d, order)))
        report["shift_census"] = {
            "order": order,
            "residual": h_is_gf.max_abs_diff(rhs),
        }
    return report
