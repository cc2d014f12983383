"""Checkers: each takes a program output and raises Mismatch unless it agrees
with an exact computation made apart from the program (see exact.py).

The checkers read program outputs through their data attributes only, so
they run no negabeta code of their own.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction

import exact
import gen


class Mismatch(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# reference data, computed once per base outside the timed region
# ---------------------------------------------------------------------------

class Truth:
    """Independent facts about one base: d, d*, d1, and an Algebraic for
    bases of degree >= 2."""

    def __init__(self, base: gen.Base, depth: int = gen.HORIZON):
        self.base = base
        self.quad = base.quad()
        self.alg = (exact.Algebraic.from_input(base.poly, *base.interval)
                    if base.poly is not None else None)
        self._depth = depth
        self._d: exact.Digits | None = None

    @property
    def d(self) -> exact.Digits:
        if self._d is None:
            if self.quad is None:
                raise Mismatch("no independent orbit for this base; use validated d")
            self._d = exact.orbit(self.quad, exact.left_end(self.quad), self._depth)[0]
        return self._d

    def adopt_d(self, d: exact.Digits) -> None:
        """Use a program-computed d that a closed-form check has validated."""
        self._d = d

    @property
    def d_star(self) -> exact.Digits:
        return exact.corrected(self.d)

    @property
    def d1(self) -> int:
        return self.quad.floor() if self.quad is not None else self.alg.floor()

    def ge_golden(self) -> bool:
        if self.quad is not None:
            return (self.quad * self.quad - self.quad - 1).sign() >= 0
        return self.alg.sign_at(exact.sympy.Poly(exact.X**2 - exact.X - 1, exact.X)) >= 0


def digits_of(seq) -> exact.Digits:
    """A program SymbolicSequence as exact.Digits (int_len filled by caller)."""
    return exact.Digits(0, tuple(seq.prefix),
                        tuple(seq.period) if seq.period is not None else None)


def unrolled(e, length: int) -> tuple[int, ...]:
    """The digits of an expansion, periodic tails repeated out to `length`."""
    d = digits_of(e.seq)
    return d.take(max(length, len(d.prefix)) if d.period is not None else len(d.prefix))


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def check_digits(truth: Truth, target, got: exact.Digits, horizon: int) -> None:
    """`got` (with int_len) is the expansion of target ('l' or a rational)."""
    if truth.quad is not None:
        x = exact.left_end(truth.quad) if target == "l" else target
        want, _ = exact.orbit(truth.quad, x, horizon)
        expect(got.int_len == want.int_len,
               f"integer part length {got.int_len} != {want.int_len}")
        expect(exact.same_sequence(got.prefix, got.period, want.prefix, want.period),
               "digits differ from the exact Fraction orbit")
        return
    if got.period is not None:
        expect(exact.periodic_expansion_exact(truth.alg, target, got),
               "closed-form sum of the periodic expansion is not the point")
    else:
        expect(len(got.prefix) == max(horizon, got.int_len),
               "truncated expansion stops before the horizon")
        expect(exact.truncated_expansion_ok(truth.alg, target, got),
               "partial sum is not within d1 beta^-n / (beta - 1) of the point")


def check_expansion(truth: Truth, target, e, horizon: int) -> None:
    check_digits(truth, target, dataclasses.replace(digits_of(e.seq), int_len=e.int_len),
                 horizon)


# ---------------------------------------------------------------------------
# language and series
# ---------------------------------------------------------------------------

def check_census(truth: Truth, n: int, counts, corrected_variant: bool) -> None:
    if not corrected_variant:
        expect(not exact.purely_odd(truth.d),
               "natural-shift census is only checked when d is not odd periodic")
    expect(list(counts) == exact.complexity(truth.d_star, n),
           "census differs from the complexity recurrence")


def check_words(truth: Truth, n: int, ws) -> None:
    words = ws.words
    h = exact.complexity(truth.d_star, n)[-1]
    expect(len(words) == h, f"{len(words)} words of length {n}, recurrence gives {h}")
    expect(all(len(w) == n for w in words), "word of the wrong length")
    expect(list(words) == sorted(set(words)), "words not sorted and distinct")
    expect(ws.census == {n: h} and ws.complete_to == n, "word-set census is wrong")
    member = exact.Admissibility(truth.d_star, truth.d1, n)
    expect(all(member(w) for w in words), "enumerated word is not admissible")


def check_periodic(truth: Truth, n: int, count: int, shift: bool) -> None:
    want = exact.periodic_counts(exact.zeta(truth.d, n, shift), n)[-1]
    expect(count == want, f"{count} period-{n} points, log-zeta gives {want}")


def check_series(got, want: list[int]) -> None:
    expect([Fraction(c) for c in got] == [Fraction(c) for c in want],
           "series coefficients differ")


def check_identities(report: dict) -> None:
    expect(bool(report), "no identities reported")
    bad = {k: v["residual"] for k, v in report.items() if v["residual"] != 0}
    expect(not bad, f"nonzero residuals {bad}")


def check_membership(truth: Truth, word, answer: bool) -> None:
    want = exact.Admissibility(truth.d_star, truth.d1, len(word))(tuple(word))
    expect(answer is want, f"is_admissible_word gave {answer}, expected {want}")


# ---------------------------------------------------------------------------
# codes, gaps, plot
# ---------------------------------------------------------------------------

def check_kraft(truth: Truth, ws, sums) -> None:
    """Partial sums by length: exact values, increasing, below 1."""
    census = ws.census
    expect(len(sums) == ws.complete_to, "one partial sum per length expected")
    expect(all(c >= 0 for c in census.values()), "negative census")
    if truth.base.rational is not None:
        beta = truth.base.rational
        acc = Fraction(0)
        for n, s in enumerate(sums, start=1):
            acc += Fraction(census.get(n, 0)) / beta ** n
            expect(tuple(s.coeffs) == (acc,), f"partial sum {n} is not exact")
        expect(acc < 1, "Kraft sum reaches 1")
        return
    for n, s in enumerate(sums, start=1):
        expect(exact.kraft_value_exact(truth.alg, census, n, s.coeffs),
               f"partial sum {n} is not exact")
    lo, _ = truth.alg.interval(Fraction(1, 2**64))
    expect(exact.kraft_upper(lo, census, len(sums)) < 1, "Kraft sum reaches 1")


def expected_gaps(level: int) -> list[tuple[int, int, int, int]]:
    out = []
    for k in range(max(level, 1)):
        uk, _ = exact.morphism_words(k)
        ukm1, _ = exact.morphism_words(k - 1)
        for i in range(len(ukm1)):
            a, b = len(uk) + i, len(uk) + len(ukm1) + i
            out.append((k, i) + ((a, b) if i % 2 == 0 else (b, a)))
    return out


def check_gap_enclosures(truth: Truth, rows) -> None:
    """rows: (k, i, left_index, right_index, (lo, hi) left, (lo, hi) right)."""
    level = exact.cascade_level(truth.base.rational)
    expect([tuple(r[:4]) for r in rows] == expected_gaps(level),
           f"gap indices differ from the level-{level} formula")
    top = max((max(r[2], r[3]) for r in rows), default=0)
    _, pts = exact.orbit(truth.quad, exact.left_end(truth.quad), top + 1)
    for k, i, li, ri, lenc, renc in rows:
        left, right = pts[li].u, pts[ri].u
        expect(left < right, f"gap ({k},{i}) endpoints out of order")
        expect(lenc[0] <= left <= lenc[1] and renc[0] <= right <= renc[1],
               f"gap ({k},{i}) enclosure misses the exact orbit point")


def count_laps(svg: str) -> int:
    return svg.count('<line class="lap"')


def check_plot(truth: Truth, n: int, svg: str) -> None:
    want = exact.lap_numbers(truth.d_star, n)[n]
    expect(count_laps(svg) == want, f"{count_laps(svg)} lap lines, L_{n} = {want}")


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

_SEQ = re.compile(r"^(?P<pre>[^()]*)(?:\((?P<per>[^()]+)\))?$")


def parse_digits(text: str) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    m = _SEQ.match(text)
    expect(m is not None, f"unparseable digits {text!r}")

    def split(s):
        if not s:
            return ()
        return tuple(int(t) for t in s.split(",")) if "," in s else tuple(int(c) for c in s)

    return split(m.group("pre")), (split(m.group("per")) if m.group("per") else None)


def greedy_parse(d: exact.Digits, u, v, limit: int) -> tuple[str, bool]:
    """Parse d over {u, v}; exhausted when a candidate runs past the known
    digits before it mismatches."""
    tokens, pos = [], 0
    while pos < limit:
        chosen = None
        for name, w in (("u", u), ("v", v)):
            ok = True
            for k, c in enumerate(w):
                if pos + k + 1 > d.known:
                    return "".join(tokens), True
                if d.digit(pos + k + 1) != c:
                    ok = False
                    break
            if ok:
                chosen = (name, w)
                break
        expect(chosen is not None, f"digits at {pos + 1} parse over neither word")
        tokens.append(chosen[0])
        pos += len(chosen[1])
    return "".join(tokens), False


def _opt(argv: list[str], flag: str, default=None):
    for i, a in enumerate(argv):
        if a == flag and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return default


def cli_base(argv: list[str], bases: dict[str, gen.Base]) -> gen.Base:
    poly = _opt(argv, "--poly")
    if poly is not None:
        return bases[poly]
    text = _opt(argv, "--beta", "2")
    if text == "golden":
        return gen.Base("golden", poly=(-1, -1, 1), interval=(Fraction(1), Fraction(2)))
    return gen.Base(text, rational=Fraction(text))


class CliChecker:
    """Checks one command's (exit code, stdout, file output).

    An algebraic base of degree >= 3 gets its d from the validated output of
    the `expand` command at the same base, which runs in the same round."""

    def __init__(self, bases: dict[str, gen.Base]):
        self.bases = bases
        self.truths: dict[str, Truth] = {}

    def truth(self, base: gen.Base) -> Truth:
        key = base.label if base.rational is None else str(base.rational)
        if key not in self.truths:
            self.truths[key] = Truth(base)
        return self.truths[key]

    def check(self, argv: list[str], code: int, out: str, file_text: str | None) -> None:
        cmd = argv[0]
        truth = self.truth(cli_base(argv, self.bases))
        if cmd == "plot":
            expect(code == 0, f"exit code {code}")
            n = int(_opt(argv, "--iterate"))
            check_plot(truth, n, file_text or "")
            return
        payload = json.loads(out)
        expect(payload.get("schema") == 1, "schema is not 1")
        getattr(self, "_" + cmd.replace("-", "_"))(argv, code, payload, truth)

    def _expand(self, argv, code, p, truth):
        pre, per = parse_digits(p["expansion"]["digits"])
        got = exact.Digits(p["integer_part_length"], pre, per)
        horizon = int(_opt(argv, "--digits", gen.HORIZON))
        check_digits(truth, "l", got, horizon)
        expect(p["expansion"]["periodic"] is (per is not None), "periodic flag")
        expect(code == (0 if per is not None else 2), f"exit code {code}")
        if truth.quad is None and horizon == gen.HORIZON:
            truth.adopt_d(got)

    def _classify(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        d = truth.d
        ge = truth.ge_golden()
        odd = len(d.period) if exact.purely_odd(d) else None
        if odd is not None:
            witness = d.period[:-1] + (d.period[-1] - 1,)
        elif not ge:
            i0 = 1
            while d.digit(2 * i0) != 1:
                i0 += 1
            witness = (1,) + (0,) * (2 * i0 - 1)
        else:
            witness = None
        expect(p["beta_ge_golden"] is ge, "golden-ratio comparison")
        expect(p["odd_period"] == odd, "odd period")
        expect(p["shift_coded"] is (ge and odd is None), "shift_coded")
        expect(p["corrected_shift_coded"] is ge, "corrected_shift_coded")
        expect(p["transitive"] is (ge and odd is None), "transitive")
        expect(p["witness"] == (None if witness is None else
                                "".join(str(c) for c in witness)), "witness word")

    def _codes(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        beta = truth.base.rational
        for fam in ("gamma", "code_c"):
            ws = p[fam]
            words = [parse_digits(w)[0] for w in ws["words"]]
            census: dict[int, int] = {}
            for w in words:
                census[len(w)] = census.get(len(w), 0) + 1
            expect({str(k): v for k, v in census.items()} == ws["census"],
                   f"{fam} census does not count its words")
            expect(not any(a != b and b[:len(a)] == a for a in words for b in words),
                   f"{fam} is not a prefix code")
            total = sum((Fraction(c) / beta ** n for n, c in census.items()), Fraction(0))
            expect(total < 1, f"{fam} Kraft sum reaches 1")

    def _complexity(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        n = int(_opt(argv, "--order"))
        expect([int(c) for c in p["complexity"]] == exact.complexity(truth.d_star, n),
               "complexity differs from the recurrence")

    def _laps(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        n = int(_opt(argv, "--order"))
        expect([int(c) for c in p["laps"]] == exact.lap_numbers(truth.d_star, n),
               "lap numbers differ")

    def _zeta(self, argv, code, p, truth):
        n = int(_opt(argv, "--order"))
        periodic = truth.d.period is not None
        expect(p["d_certified_periodic"] is periodic, "periodicity flag")
        expect(code == (0 if periodic else 2), f"exit code {code}")
        for key, shift in (("zeta_transformation", False), ("zeta_shift", True)):
            expect([int(c) for c in p[key]] == exact.zeta(truth.d, n, shift), key)

    def _periodic_points(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        n = int(_opt(argv, "--n"))
        shift = _opt(argv, "--target") == "shift"
        expect([int(c) for c in p["counts"]] ==
               exact.periodic_counts(exact.zeta(truth.d, n, shift), n), "periodic counts")

    def _gaps(self, argv, code, p, truth):
        level = exact.cascade_level(truth.base.rational)
        expect(p["cascade_level"] == level, f"level {p['cascade_level']} != {level}")
        u, v = exact.morphism_words(level)
        expect(p["u"] == "".join(map(str, u)) and p["v"] == "".join(map(str, v)),
               "morphism words")
        d = exact.orbit(truth.quad, exact.left_end(truth.quad), 256)[0]
        tokens, exhausted = greedy_parse(d, u, v, 256)
        expect(p["parse_tokens"] == tokens, "parse tokens")
        expect(p["parse_exhausted"] is exhausted, "parse exhaustion")
        expect(code == (2 if exhausted else 0), f"exit code {code}")
        rows = [(g["k"], g["i"], g["left_orbit_index"], g["right_orbit_index"],
                 tuple(Fraction(x) for x in g["left"]),
                 tuple(Fraction(x) for x in g["right"])) for g in p["gaps"]]
        check_gap_enclosures(truth, rows)

    def _verify(self, argv, code, p, truth):
        expect(code == 0, f"exit code {code}")
        expect(p["all_zero"] is True, "all_zero")
        expect(p["identities"] and all(v["residual"] == "0"
                                       for v in p["identities"].values()),
               "nonzero residual")
