"""The three workloads: generated inputs, the timed operations and their checks.

A workload is a list of groups.  A group runs one or more timed
operations (``execute``) and then checks their results (``check``)
outside any timed span.  Every group is built from the seed alone, and
its check compares against values derived from the group's own inputs
(``refs``), never against recorded output of the code under test.

Library functions are always looked up on their module at call time, so
that the wrappers installed by ``trace`` see the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
from fractions import Fraction

import refs

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


class Failed:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"Failed({type(self.exc).__name__}: {self.exc})"


class Group:
    """Timed operations plus a check."""

    def __init__(self, kind: str, ops, check):
        self.kind = kind
        self.ops = ops  # callables; each gets the list of earlier results
        self._check = check
        self.stats = {}
        self.query = False  # results are (exit code, stdout, stderr) of CLI calls

    def execute(self, timed) -> list:
        results = []
        for op in self.ops:
            results.append(timed(op, results))
        return results

    def check(self, results) -> bool:
        self.stats.clear()
        if any(isinstance(r, Failed) for r in results):
            return False
        try:
            return bool(self._check(results, self.stats))
        except (ValueError, TypeError, KeyError, IndexError, ArithmeticError):
            return False


def _pick(rng, values):
    return values[rng.randrange(len(values))]


# ---------------------------------------------------------------------------
# products: exact products over the scale, shift and free bases
# ---------------------------------------------------------------------------

_RATIONALS = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2", "-2/3", "5/4"))
PRODUCT_CAPS = dict(max_word_len=16, max_degree=64)
PRODUCT_PAIRS = 400  # homomorphism groups per base; ideal groups are 3/10 of that


def build_products(sk, seed: int) -> list:
    bases, tensor, quotient, ore = sk.bases, sk.tensor, sk.quotient, sk.ore
    GR = sk.scalars.GaussianRational
    rng = random.Random(seed)
    qs = [GR(Fraction(2)), GR(Fraction(1, 2)), GR(Fraction(3, 2)), GR(Fraction(1), Fraction(1))]
    entire_specs = [bases.BaseSpec("entire", bases.ScaleAut(q)) for q in qs]
    entire_specs.append(bases.BaseSpec("entire", bases.ShiftAut()))
    free_spec = bases.BaseSpec("free", bases.DiagonalAut((GR(Fraction(2)), GR(Fraction(1, 2)))), 2)

    def scalar(complex_ok):
        if complex_ok and rng.random() < 0.3:
            return GR(_pick(rng, _RATIONALS), _pick(rng, _RATIONALS))
        return GR(_pick(rng, _RATIONALS))

    def element(spec, max_terms=3):
        complex_ok = spec.kind == "free" or spec.aut.kind == "scale"
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            if spec.kind == "free":
                key = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
            else:
                key = rng.randint(0, 4)
            coeffs[key] = scalar(complex_ok)
        return spec.element_type(coeffs)

    def word(max_len):
        return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))

    def series(spec, nterms, max_len=3):
        terms = {}
        while len(terms) < nterms:
            terms[word(max_len)] = element(spec)
        return tensor.TwistedSeries(spec, terms, **PRODUCT_CAPS)

    def homomorphism(spec):
        f, g = series(spec, 4), series(spec, 4)

        def op(_):
            h = tensor.mul(f, g)
            rf, rg, rh = (quotient.reduce_to_ore(x) for x in (f, g, h))
            return h.truncated, rh, ore.ore_mul(rf, rg)

        def check(results, _stats):
            truncated, rh, product = results[0]
            return not truncated and rh == product

        return Group("homomorphism", [op], check)

    def ideal(spec):
        u, v = series(spec, 1, 2), series(spec, 1, 2)
        off = series(spec, 1, 2)  # a nonzero monomial: never in the ideal
        rel = quotient.relators(spec, **PRODUCT_CAPS)[rng.randrange(2)]

        def op(_):
            g = tensor.mul(tensor.mul(u, rel), v)
            return quotient.ideal_member(g), quotient.ideal_member(g + off)

        def check(results, _stats):
            return results[0] == (True, False)

        return Group("ideal", [op], check)

    # more distinct groups than a run completes, so that the p99 tail rests
    # on about as many distinct inputs as samples beyond it
    groups = []
    for spec in entire_specs + [free_spec]:
        groups += [homomorphism(spec) for _ in range(PRODUCT_PAIRS)]
    for spec in entire_specs:
        groups += [ideal(spec) for _ in range(PRODUCT_PAIRS * 3 // 10)]
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# oracle: brute-force sandwich and ideal-slice checks on the q = 2 scale base
# ---------------------------------------------------------------------------


def build_oracle(sk, seed: int) -> list:
    bases, oracles, quotient, tensor = sk.bases, sk.oracles, sk.quotient, sk.tensor
    rng = random.Random(seed)
    spec = bases.BaseSpec("entire", bases.ScaleAut(sk.scalars.GaussianRational(Fraction(2))))
    words = [w for length in range(1, 5) for w in itertools.product((1, 2), repeat=length)]
    coeffs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))

    def sandwich(f, pair):
        budgets = [oracles.SearchBudget(max_samples=40, seed=rng.randrange(2**31)) for _ in pair]

        def op(_):
            out = []
            for w, budget in zip(pair, budgets):
                exact, tag = spec.twisted_seminorm(f, w, 1)
                out.append((exact, tag.value,
                            oracles.bruteforce_twisted_norm(spec, f, w, 1, budget)))
            return out

        def check(results, stats):
            sandwiches = results[0]
            stats["checks"] = len(sandwiches)
            stats["tight"] = sum(abs(oracle - exact) <= 1e-9 for exact, _, oracle in sandwiches)
            return all(tag == "exact" and oracle >= exact - 1e-9
                       for exact, tag, oracle in sandwiches)

        return Group("sandwich", [op], check)

    def quotient_slice():
        terms, nterms = {}, rng.randint(2, 3)
        while len(terms) < nterms:
            w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))
            terms[w] = bases.EntirePoly({rng.randint(0, 3): _pick(rng, coeffs)})
        f = tensor.TwistedSeries(spec, terms, max_word_len=16, max_degree=64)
        lam, rho = _pick(rng, ((1, 1.5), (1, 4.0), (2, 1.0)))
        budget = oracles.SearchBudget(max_samples=40, seed=rng.randrange(2**31))

        def op(_):
            return (quotient.quotient_norm(f, lam, rho),
                    oracles.slice_quotient_norm(f, lam, rho, 3, budget))

        def check(results, _stats):
            exact, oracle = results[0]
            return oracle >= exact - 1e-9

        return Group("slice", [op], check)

    # One operation checks f against two words of the same length, so a
    # run holds a few hundred operations and the tail stays at p90.
    pairs = [(words[i], words[i + 1]) for i in range(0, len(words), 2)]
    groups = []
    for degree in range(5):
        for _ in range(4):
            f = bases.EntirePoly({degree: _pick(rng, coeffs)})
            groups += [sandwich(f, pair) for pair in pairs]
    groups += [quotient_slice() for _ in range(60)]
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# queries: text in, text out through the in-process CLI
# ---------------------------------------------------------------------------

CONFIGS = {
    "scale2": None,  # the CLI default: entire base, scale q = 2, L = 16, D = 32
    "scale3_2": "scale3_2.cfg",
    "scale1_2": "scale1_2.cfg",
    "interval": "interval.cfg",
    "free": "free.cfg",
    "q1i": "q1i.cfg",
    "d5000": "d5000.cfg",
    "missing": "missing.cfg",  # deliberately absent: a configuration error
}
SCALE_Q = {"scale2": Fraction(2), "scale3_2": Fraction(3, 2), "scale1_2": Fraction(1, 2)}

# Groups per generated list (coset and ideal groups make 3 and 2 queries).
# Interval norms are about a quarter of all queries; the power queries
# stay under 1 %, so the p99 tail is set by the interval sup-norm.
QUERY_MIX = (
    ("coset", 120), ("interval", 400), ("table", 80), ("reduce", 80), ("phi", 80),
    ("ideal", 60), ("to-ore", 80), ("mul", 80), ("vanishing", 48),
    ("localizability", 24), ("power", 4), ("invalid", 96),
)


def argv_for(config: str, command: str, exprs=(), **options) -> list:
    """CLI argv with options before the command and ``--`` before the operands.

    argparse reads an operand with a leading '-' as an option, and it
    binds an empty operand list when an option follows the command, so
    the operands must come last, after ``--``.
    """
    argv = []
    if CONFIGS[config] is not None:
        argv += ["--config", os.path.join(CONFIG_DIR, CONFIGS[config])]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    argv.append(command)
    if exprs:
        argv += ["--", *exprs]
    return argv


def run_query(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the CLI user would see a traceback here
            code = f"raise:{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _monomial_text(c: Fraction, m: int, word) -> tuple:
    parts = [str(abs(c))]
    if m:
        parts.append("z" if m == 1 else f"z^{m}")
    if word:
        parts.append(refs.word_text(word))
    return ("-" if c < 0 else "+"), "*".join(parts)


def series_text(monomials) -> str:
    """Input text for [(c, m, word)]; a negative first coefficient leads with '-'."""
    out = ""
    for c, m, word in monomials:
        sign, body = _monomial_text(c, m, word)
        if not out:
            out = body if sign == "+" else f"-{body}"
        else:
            out += f" {sign} {body}"
    return out or "0"


def _float_value(out: str) -> float:
    return float(out.split()[0])


def build_queries(sk, seed: int) -> list:
    cli = sk.cli
    rng = random.Random(seed)

    def query(argv):
        return lambda _results: run_query(cli, argv)

    def coeff():
        return _pick(rng, (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 2),
                           Fraction(-1), Fraction(-3), Fraction(5, 4)))

    def monomials(n_terms, max_m=3, max_len=3):
        return [(coeff(), rng.randint(0, max_m),
                 tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len))))
                for _ in range(n_terms)]

    def nonzero_phi(max_m=3, max_len=3):
        while True:
            mons = monomials(rng.randint(2, 3), max_m, max_len)
            if refs.phi_table(mons):
                return mons

    def ok_code(result):
        return result[0] == 0

    def coset():
        config = _pick(rng, ("scale2", "scale3_2", "scale1_2"))
        f = monomials(rng.randint(2, 3))
        u, v = monomials(1, 2, 2), monomials(1, 2, 2)
        rel = _pick(rng, ("x1*x2 - 1", "x2*x1 - 1"))
        shifted = f"{series_text(f)} + ({series_text(u)})*({rel})*({series_text(v)})"
        opts = {"lambda": _pick(rng, (1, 2)),
                "rho": _pick(rng, ("1/2", "1", "3/2", "2", "3", "4"))}
        argvs = [argv_for(config, "qnorm", [series_text(f)], **opts),
                 argv_for(config, "qnorm", [shifted], **opts),
                 argv_for(config, "norm", [series_text(f)], **opts)]

        def check(results, _stats):
            if not all(map(ok_code, results)):
                return False
            qn, qn_shifted, norm = (_float_value(r[1]) for r in results)
            return (abs(qn - qn_shifted) <= 1e-12 * max(1.0, abs(qn))
                    and qn <= norm * (1 + 1e-12) + 1e-300)

        return Group("coset", [query(a) for a in argvs], check)

    def interval(nroots):
        # critical points at distinct sevenths inside the word's window (at
        # least 1 wide, so at least five fit): the sup-norm isolates exactly
        # nroots roots of f', no bisection midpoint lands on one, and the
        # Sturm chains stay small (roots at tenths made a degree-6 query
        # cost either 1x or 2x, and the tail sat on that step)
        n = _pick(rng, (Fraction(3, 2), Fraction(2), Fraction(3)))
        word = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
        lo, hi = refs.interval_window(word, n)
        roots = rng.sample([k for k in range(int(7 * lo) + 1, int(7 * hi)) if k % 7], nroots)
        deriv = {0: _pick(rng, (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)))}
        for r in roots:  # multiply by (z - r/7)
            nxt = {}
            for m, c in deriv.items():
                nxt[m + 1] = nxt.get(m + 1, 0) + c
                nxt[m] = nxt.get(m, 0) - c * Fraction(r, 7)
            deriv = nxt
        coeffs = {m + 1: c / (m + 1) for m, c in deriv.items() if c}
        coeffs[0] = _pick(rng, (Fraction(0), Fraction(1), Fraction(-1, 3)))
        coeffs = {m: c for m, c in coeffs.items() if c}
        rho = _pick(rng, (Fraction(1), Fraction(2)))
        text = f"({refs.poly_text(coeffs)})" + (f"*{refs.word_text(word)}" if word else "")
        argv = argv_for("interval", "norm", [text], **{"lambda": n}, rho=rho)

        def check(results, _stats):
            code, out, _ = results[0]
            lower, upper = refs.interval_norm_bracket([(word, coeffs)], n, rho)
            return code == 0 and out.split()[1] == "(exact)" and refs.within(
                _float_value(out), lower, upper)

        return Group("interval", [query(argv)], check)

    def table():
        config = _pick(rng, ("scale2", "free"))
        if config == "free":
            text = " + ".join(
                f"{abs(coeff())}*" + "*".join(["g1", "g2"][:rng.randint(1, 2)])
                + (f"*{refs.word_text(w)}" if w else "")
                for w in [tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
                          for _ in range(2)])
        else:
            text = series_text(monomials(rng.randint(2, 3)))
        lams = sorted(rng.sample((Fraction(1), Fraction(2), Fraction(1, 2)), 2))
        rhos = sorted(rng.sample((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)), 3))
        argv = argv_for(config, "table", [text],
                        lambda_grid=",".join(map(str, lams)),
                        rho_grid=",".join(map(str, rhos)))

        def check(results, _stats):
            code, out, _ = results[0]
            lines = out.strip().splitlines()
            if code != 0 or lines[0] != "lambda,rho,value,exactness":
                return False
            rows = [line.split(",") for line in lines[1:]]
            expected = [(float(a), float(b)) for a in lams for b in rhos]
            if [(float(r[0]), float(r[1])) for r in rows] != expected:
                return False
            if any(r[3] not in ("exact", "upper_bound") for r in rows):
                return False
            values = [float(r[2]) for r in rows]
            return all(
                0 <= values[i] <= values[i + 1]
                for i in range(len(values) - 1) if (i + 1) % len(rhos))

        return Group("table", [query(argv)], check)

    def reduce():
        config = _pick(rng, ("scale2", "scale3_2"))
        qq = SCALE_Q[config]
        f = nonzero_phi()
        rho = _pick(rng, (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)))
        argv = argv_for(config, "reduce", [series_text(f)], rho=rho)

        def check(results, _stats):
            code, out, _ = results[0]
            rep, dropped = refs.canonical_rep(f, qq * qq, rho)
            lines = out.strip().splitlines()
            got_dropped = set()
            if lines and lines[-1].startswith("dropped classes:"):
                got_dropped = {(int(m), int(n)) for m, n in
                               re.findall(r"m=(-?\d+), n=(-?\d+)", lines.pop())}
            read = refs.read_element(lines[0]) if lines[0] != "0" else {}
            got = {(m, w): c for (m, t, w), c in read.items()}
            return code == 0 and len(lines) == 1 and got == rep and got_dropped == dropped

        return Group("reduce", [query(argv)], check)

    def phi():
        f = monomials(rng.randint(2, 4))
        argv = argv_for("scale2", "phi", [series_text(f)])

        def check(results, _stats):
            code, out, _ = results[0]
            got = {}
            for m, n, value in re.findall(r"phi\((-?\d+),(-?\d+)\) = (\S+)", out):
                got[(int(m), int(n))] = Fraction(value)
            expected = refs.phi_table(f)
            return code == 0 and got == expected and (expected or out.strip() == "0")

        return Group("phi", [query(argv)], check)

    def ideal():
        parts = []
        for rel in ("x1*x2 - 1", "x2*x1 - 1"):
            u, v = monomials(1, 2, 2), monomials(1, 2, 2)
            parts.append(f"({series_text(u)})*({rel})*({series_text(v)})")
        member = " - ".join(parts)
        other = nonzero_phi()
        argvs = [argv_for("scale2", "ideal-test", [member]),
                 argv_for("scale2", "ideal-test", [series_text(other)])]

        def check(results, _stats):
            return [r[:2] for r in results] == [(0, "true\n"), (0, "false\n")]

        return Group("ideal", [query(a) for a in argvs], check)

    def to_ore():
        f = monomials(rng.randint(2, 4))
        argv = argv_for("scale2", "to-ore", [series_text(f)])

        def check(results, _stats):
            code, out, _ = results[0]
            got = {(m, t): c for (m, t, w), c in refs.read_element(out).items() if not w}
            return code == 0 and got == refs.phi_table(f) and "x" not in out

        return Group("to-ore", [query(argv)], check)

    def mul():
        config = _pick(rng, ("scale2", "scale3_2"))

        def operand():
            mons = {(rng.randint(0, 2), rng.choice((-1, 0, 1, 2))): coeff() for _ in range(2)}
            mons[(rng.randint(0, 2), 1)] = coeff()  # always a t term: an Ore operand
            return mons

        a, b = operand(), operand()

        def text(mons):
            return " + ".join(f"({c})*z^{m}*t^{i}" for (m, i), c in mons.items())

        argv = argv_for(config, "mul", [text(a), text(b)])

        def check(results, _stats):
            code, out, _ = results[0]
            got = {(m, t): c for (m, t, w), c in refs.read_element(out).items()}
            return code == 0 and got == refs.ore_product(a, b, SCALE_Q[config])

        return Group("mul", [query(argv)], check)

    def vanishing():
        if rng.random() < 0.5:
            # the window of 1^k 2^k on [-n, n] empties once k > 2n
            n = _pick(rng, (Fraction(1), Fraction(3, 2), Fraction(2)))
            r = _pick(rng, ("1", "2", "z", "1/2*z"))
            depth = _pick(rng, (6, 8))
            argv = argv_for("interval", "vanishing", r=r, depth=depth, **{"lambda": n})
            expected = "CollapseCertified" if "z" not in r else "RapidDecayObserved"
        else:
            # a constant r has seminorm |r| on every word: |r| rho^(2k) exactly
            c = _pick(rng, (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3)))
            rho = _pick(rng, (Fraction(1, 2), Fraction(1), Fraction(2)))
            depth = _pick(rng, (6, 24))
            argv = argv_for("scale2", "vanishing", r=f"({c})", rho=rho, depth=depth)
            smallest = min(abs(c) * rho ** (2 * k) for k in range(1, depth + 1))
            expected = "RapidDecayObserved" if smallest < Fraction(1, 10**12) else "NoDecay"

        def check(results, _stats):
            code, out, _ = results[0]
            return code == 0 and out.splitlines()[0] == expected

        return Group("vanishing", [query(argv)], check)

    def localizability():
        config = _pick(rng, ("scale2", "scale3_2", "scale1_2", "free"))
        if config == "free":
            expected = ("growing", "growing")  # diagonal (2, 1/2): each way one generator grows
        elif SCALE_Q[config] > 1:
            expected = ("growing", "bounded")
        else:
            expected = ("bounded", "growing")
        # the free base probes every word up to the depth: keep it short
        depth = 3 if config == "free" else _pick(rng, (4, 6, 8))
        argv = argv_for(config, "localizability", depth=depth)

        def check(results, _stats):
            code, out, _ = results[0]
            match = re.search(r"forward (\w+) .*, inverse (\w+) ", out)
            return code == 0 and match is not None and match.groups() == expected

        return Group("localizability", [query(argv)], check)

    def power():
        a = _pick(rng, (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)))
        lam = _pick(rng, (Fraction(1), Fraction(2)))
        rho = _pick(rng, (Fraction(1, 2), Fraction(1)))
        # exactly at the default caps D = 32, L = 16
        argv = argv_for("scale2", "norm", [f"({a}+z)^32*x1^16"], **{"lambda": lam}, rho=rho)
        expected = refs.scale_power_norm(refs.binomial_power(a, 32), 16, Fraction(2), lam, rho)

        def check(results, _stats):
            code, out, _ = results[0]
            value = _float_value(out)
            return (code == 0 and out.split()[1] == "(exact)"
                    and abs(value - float(expected)) <= 1e-9 * float(expected))

        return Group("power", [query(argv)], check)

    def invalid():
        a = rng.randint(1, 9)
        config, command, expr, expected = _pick(rng, (
            ("scale2", "norm", f"{a}*z^^2", 2),
            ("scale2", "norm", f"{a}*x1*t", 2),
            ("scale2", "norm", f"x1^-{a}", 2),
            ("scale2", "norm", f"({a}*z + 1", 2),
            ("scale2", "qnorm", f"{a}*x3", 2),
            ("missing", "norm", f"{a}*z*x1", 2),
            ("free", "qnorm", f"{a}*g1*x1", 3),
            ("free", "reduce", f"{a}*g2*x2", 3),
            ("interval", "phi", f"{a}*z*x1", 3),
        ))
        argv = argv_for(config, command, [expr])

        def check(results, _stats):
            code, out, _ = results[0]
            return code == expected and out == ""

        return Group("invalid", [query(argv)], check)

    builders = {"coset": coset, "table": table, "reduce": reduce,
                "phi": phi, "ideal": ideal, "to-ore": to_ore, "mul": mul,
                "vanishing": vanishing, "localizability": localizability,
                "power": power, "invalid": invalid}
    groups = []
    for kind, count in QUERY_MIX:
        if kind == "interval":
            # stratified by the number of critical points (1 .. 5, degree
            # 2 .. 6), so every seed has the same cost profile
            groups += [interval(1 + i % 5) for i in range(count)]
        else:
            groups += [builders[kind]() for _ in range(count)]
    for group in groups:
        group.query = True
    rng.shuffle(groups)
    return groups


def build_known_defects(sk) -> list:
    """The ROADMAP item D reproductions, one group each, labelled D1-D4.

    D1: vanishing --r 1 --rho 1e-200 --depth 4 must not certify a collapse.
    D2: reduce z^2*x1 --rho 2 at q = 1+1i must keep the plain word x1.
    D3: norm x1^17 at L = 16 must not report a clean 0.0 (exact).
    D4: qnorm z^1200*x1 --rho 2 at D = 5000 must exit 0 or 2, not raise.

    They are not part of the queries workload's list: a queries run
    executes each of them exactly once, after its measurement and outside
    every timed span, and reports their outcomes beside the result, so
    that the workload's own operations all pass while the defects stand.
    """

    def query(argv):
        return lambda _results: run_query(sk.cli, argv)

    d1 = argv_for("scale2", "vanishing", r="1", rho="1e-200", depth=4)
    d2 = argv_for("q1i", "reduce", ["z^2*x1"], rho=2)
    d3 = argv_for("scale2", "norm", ["x1^17"])
    d4 = argv_for("d5000", "qnorm", ["z^1200*x1"], rho=2)
    groups = [
        Group("D1", [query(d1)], lambda res, _s: res[0][0] == 0
              and "CollapseCertified" not in res[0][1]),
        Group("D2", [query(d2)], lambda res, _s: res[0][0] == 0
              and res[0][1].splitlines()[0] == "(z^2)*x1"),
        Group("D3", [query(d3)], lambda res, _s: res[0][0] == 0
              and not res[0][1].startswith("0.0 (exact)")),
        Group("D4", [query(d4)], lambda res, _s: res[0][0] in (0, 2)),
    ]
    for group in groups:
        group.query = True
    return groups


BUILDERS = {"products": build_products, "queries": build_queries, "oracle": build_oracle}

# Groups in the traced pass: a prefix of the shuffled list, so the
# counts depend on the seed alone and a traced run stays under a minute.
TRACE_GROUPS = {"products": 600, "queries": 500, "oracle": 120}
