"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line naming the property it covers,
so the suite doubles as a checklist when run with ``pytest tests/test_acceptance.py``.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from skewcalc import (
    BaseSpec,
    EntirePoly,
    Exactness,
    GaussianRational,
    IntervalPoly,
    ScaleAut,
    SearchBudget,
    ShiftAut,
    TwistedSeries,
    Verdict,
    bruteforce_twisted_norm,
    format_element,
    i_w_apply,
    ideal_member,
    mul,
    ore_mul,
    parse_expr,
    phi,
    quotient_norm,
    reduce_to_ore,
    relators,
    twisted_norm,
    vanishing_test,
)
from skewcalc.cli import main as cli_main
from skewcalc.quotient import phi_table
from skewcalc.words import (
    all_words,
    canonical_word,
    extremal_twists,
    interval,
    partial_sums,
    winding,
)

from conftest import q_of, rand_entire, rand_series

CAPS = dict(max_word_len=12, max_degree=64)
SEED = 77


def spec_for(q):
    return BaseSpec("entire", ScaleAut(q_of(q)))


@pytest.fixture
def criterion(request, capfd):
    yield
    report = getattr(request.node, "outcome_call", None)
    status = "PASS" if report is not None and report.passed else "FAIL"
    label = request.node.function.__doc__.strip().splitlines()[0]
    with capfd.disabled():
        print(f"{status}: {label}")


def test_criterion_01_reduction_homomorphism(criterion):
    """reduction to the skew Laurent ring is an exact ring homomorphism"""
    rng = random.Random(SEED)
    start = time.perf_counter()
    specs = [spec_for(2), spec_for("1/2"), spec_for("3/2")]
    for i in range(1000):
        spec = specs[i % 3]
        f = rand_series(rng, spec, 3, 6, 6, **CAPS)
        g = rand_series(rng, spec, 3, 6, 6, **CAPS)
        product = mul(f, g)
        assert not product.truncated
        assert reduce_to_ore(product) == ore_mul(reduce_to_ore(f), reduce_to_ore(g))
    assert time.perf_counter() - start <= 60


def test_criterion_02_slot_product_concatenation(criterion):
    """slot products concatenate through the winding twist"""
    rng = random.Random(SEED)
    start = time.perf_counter()
    spec = spec_for(2)
    small_words = [w for w in all_words(3) if w]
    for w1, w2 in itertools.product(small_words, small_words):
        for _ in range(50):
            xs = tuple(rand_entire(rng, 3, 2) for _ in w1)
            ys = tuple(rand_entire(rng, 3, 2) for _ in w2)
            lhs = i_w_apply(spec, w1 + w2, xs + ys)
            rhs = i_w_apply(spec, w1, xs) * spec.aut.apply(
                i_w_apply(spec, w2, ys), winding(w1)
            )
            assert lhs == rhs
    assert time.perf_counter() - start <= 30


def test_criterion_03_weighted_norm_submultiplicative(criterion):
    """weighted norms are submultiplicative over the scaling base"""
    rng = random.Random(SEED)
    grid = (0.5, 1, 2, 4)
    specs = [spec_for(2), spec_for("1/2")]
    for i in range(500):
        spec = specs[i % 2]
        # supports on nonempty words, where the inequality is provable
        f = rand_series(rng, spec, 2, 3, 3, min_len=1, **CAPS)
        g = rand_series(rng, spec, 2, 3, 3, min_len=1, **CAPS)
        product = mul(f, g)
        assert not product.truncated
        for lam in grid:
            for rho in grid:
                pv, pt = twisted_norm(product, lam, rho)
                fv, ft = twisted_norm(f, lam, rho)
                gv, gt = twisted_norm(g, lam, rho)
                assert pt is ft is gt is Exactness.EXACT
                assert pv <= fv * gv + 1e-9


def test_criterion_04_seminorm_sandwich(criterion):
    """the closed-form seminorm is sandwiched by the decomposition search"""
    rng = random.Random(SEED)
    spec = spec_for(2)
    budget = SearchBudget(max_samples=40, seed=SEED)
    words = [w for w in all_words(4) if w]
    for _ in range(100):
        f = EntirePoly({rng.randint(0, 4): rng.choice((1, -1, 2, Fraction(1, 2)))})
        for w in words:
            exact, tag = spec.twisted_seminorm(f, w, 1)
            assert tag is Exactness.EXACT
            bf = bruteforce_twisted_norm(spec, f, w, 1, budget)
            assert bf >= exact - 1e-9
            assert bf == pytest.approx(exact, abs=1e-9)


def _padded_minimum(f, lam, rho, depth):
    spec = f.spec
    caps = dict(max_word_len=2 * depth + 8, max_degree=f.max_degree)
    wide = TwistedSeries(spec, f.terms, **caps)
    pad_alt = TwistedSeries(spec, {(1, 2): spec.one()}, **caps)
    x1 = TwistedSeries(spec, {(1,): spec.one()}, **caps)
    x2 = TwistedSeries(spec, {(2,): spec.one()}, **caps)
    best, _ = twisted_norm(wide, lam, rho)
    alternating = wide
    pad_block = TwistedSeries(spec, {(): spec.one()}, **caps)
    for _ in range(depth):
        alternating = mul(alternating, pad_alt)
        pad_block = mul(mul(x1, pad_block), x2)
        for candidate in (alternating, mul(wide, pad_block)):
            assert not candidate.truncated
            value, _ = twisted_norm(candidate, lam, rho)
            best = min(best, value)
    return best


def test_criterion_05_quotient_norm_bounds(criterion):
    """the quotient norm is a certified lower bound with convergent padding"""
    rng = random.Random(SEED)
    spec = spec_for(2)
    r12, r21 = relators(spec, max_word_len=16, max_degree=64)

    def monomial_series(caps=dict(max_word_len=16, max_degree=64)):
        w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))
        coeff = spec.monomial(rng.choice((1, -1, 2)), rng.randint(0, 2))
        return TwistedSeries(spec, {w: coeff}, **caps)

    for _ in range(200):
        f = rand_series(rng, spec, 2, 3, 3, max_word_len=16, max_degree=64)
        g = mul(mul(monomial_series(), r12 if rng.random() < 0.5 else r21),
                monomial_series())
        lam, rho = rng.choice(((1, 1.5), (1, 4.0), (2, 1.0)))
        candidate, _ = twisted_norm(f + g, lam, rho)
        assert candidate >= quotient_norm(f, lam, rho) - 1e-9

    # dropped classes (|q|^m > rho^2): padded coset members converge to 0
    z = EntirePoly({1: 1})
    for terms, lam, rho in (
        ({(1,): z}, 1, 1.0),
        ({(1,): z}, 1, 1.1),
        ({(1, 1): EntirePoly({2: 1})}, 1, 1.5),
    ):
        f = TwistedSeries(spec, terms, max_word_len=16, max_degree=64)
        target = quotient_norm(f, lam, rho)
        assert target == 0.0
        assert _padded_minimum(f, lam, rho, 40) <= target + 1e-6

    f = TwistedSeries(spec, {(1,): z}, **CAPS)
    assert quotient_norm(f, 1, 4.0) == pytest.approx(4.0, abs=1e-12)
    assert quotient_norm(f, 1, 1.5) == pytest.approx(0.84375, abs=1e-12)
    assert quotient_norm(f, 1, 1.0) == 0.0


def test_criterion_06_ideal_characterization(criterion):
    """the relator ideal is exactly the common kernel of the winding functionals"""
    rng = random.Random(SEED)
    spec = spec_for(2)
    r12, r21 = relators(spec, **CAPS)

    def monomial_series():
        w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
        coeff = spec.monomial(rng.choice((1, -1, 2, Fraction(1, 2))), rng.randint(0, 2))
        return TwistedSeries(spec, {w: coeff}, **CAPS)

    for _ in range(100):
        g = mul(mul(monomial_series(), r12 if rng.random() < 0.5 else r21),
                monomial_series())
        assert not phi_table(g)
        assert ideal_member(g)

    one = spec.one()
    x1 = TwistedSeries(spec, {(1,): one}, **CAPS)
    x2 = TwistedSeries(spec, {(2,): one}, **CAPS)
    assert not ideal_member(x1)
    assert not ideal_member(x2)
    core = TwistedSeries(spec, {(1, 2): EntirePoly({1: 1})}, **CAPS)
    for c in (1, -1, Fraction(1, 2), GaussianRational(Fraction(0), Fraction(1))):
        shifted = core + TwistedSeries(spec, {(): spec.monomial(c, 0)}, **CAPS)
        assert not ideal_member(shifted)


def test_criterion_07_interval_collapse_thresholds(criterion):
    """the interval base collapses the balanced words past the window width"""
    spec = BaseSpec("interval", ShiftAut())
    for n in range(1, 6):
        for k in range(1, 13):
            w = (1,) * k + (2,) * k
            value, tag = spec.twisted_seminorm(IntervalPoly.one(), w, n)
            if k > 2 * n:
                assert (value, tag) == (0.0, Exactness.EXACT)
                assert interval(w, n) is None
            else:
                assert value > 0
    report = vanishing_test(spec, IntervalPoly.one(), [1, 2, 3, 4, 5], [1], 12)
    assert report.verdict is Verdict.COLLAPSE_CERTIFIED

    # single-variable elements a*x^k die one step past the window width
    for n in (1, 2, 3):
        for k in range(1, 3 * n + 4):
            f = TwistedSeries(spec, {(1,) * k: IntervalPoly.one()},
                              max_word_len=16, max_degree=32)
            value, _ = twisted_norm(f, n, 1.0)
            assert (value == 0.0) == (k >= 2 * n + 2)


def test_criterion_08_shift_versus_scale_contrast(criterion):
    """shift twists collapse the unit while expanding scale twists do not"""
    shift = BaseSpec("entire", ShiftAut())
    report = vanishing_test(shift, EntirePoly.one(), [1], [1, 2], 12)
    assert report.verdict is Verdict.COLLAPSE_CERTIFIED
    scale = spec_for(2)
    report = vanishing_test(scale, EntirePoly.one(), [1], [1, 2], 10)
    assert report.verdict is Verdict.NO_DECAY


def test_criterion_09_functional_continuity(criterion):
    """winding functionals are bounded by the weighted norm on their domain"""
    rng = random.Random(SEED)
    spec = spec_for(2)
    rho = 10.0  # exceeds |q|^m for every generated degree m <= 3
    for _ in range(200):
        f = rand_series(rng, spec, 3, 4, 3, **CAPS)
        bound, _ = twisted_norm(f, 1, rho)
        for m, n in sorted(phi_table(f)):
            assert abs(phi(f, m, n)) <= bound + 1e-9


def test_criterion_10_word_calculus_exhaustive(criterion):
    """word-calculus invariants hold for every word up to length 10"""
    start = time.perf_counter()

    def max_twist_canonically_maximized(w):
        n1, n2 = w.count(1), w.count(2)
        return extremal_twists(w)[1] <= extremal_twists(canonical_word(n1, n2))[1]

    def concatenation_partial_sums(w):
        for cut in range(len(w) + 1):
            w1, w2 = w[:cut], w[cut:]
            c1 = winding(w1)
            for k in range(len(w2) + 1):
                if partial_sums(w)[cut + k] != c1 + partial_sums(w2)[k]:
                    return False
        return True

    def interval_contained_in_slot_windows(w):
        for n in (1, 2, 3):
            win = interval(w, n)
            if win is None:
                continue
            lo, hi = win
            for i in range(len(w)):
                p = partial_sums(w)[i]
                if lo < p - n or hi > p + n:
                    return False
        return True

    for prop in (max_twist_canonically_maximized, concatenation_partial_sums,
                  interval_contained_in_slot_windows):
        for w in all_words(10):
            assert prop(w), (prop.__name__, w)
    assert time.perf_counter() - start <= 20


def test_criterion_11_cli_round_trip_and_spots(criterion, tmp_path, capfd):
    """text forms round-trip and the command line reproduces the spot values"""
    rng = random.Random(SEED)
    from skewcalc import DiagonalAut

    specs = [
        spec_for(2),
        BaseSpec("interval", ShiftAut()),
        BaseSpec("free", DiagonalAut((q_of(2), q_of("1/2"))), ngens=2),
    ]
    for i in range(500):
        spec = specs[i % 3]
        f = rand_series(rng, spec, 3, 4, 3, **CAPS)
        assert parse_expr(format_element(f), spec, CAPS) == f

    scale_cfg = tmp_path / "scale2.cfg"
    scale_cfg.write_text("base = entire\nautomorphism = scale\nq = 2\n")
    interval_cfg = tmp_path / "interval.cfg"
    interval_cfg.write_text("base = interval\nautomorphism = shift\n")

    capfd.readouterr()
    code = cli_main(["--config", str(scale_cfg), "qnorm", "z*x1",
                     "--lambda", "1", "--rho", "3/2"])
    assert (code, capfd.readouterr().out.strip()) == (0, "0.84375")
    code = cli_main(["--config", str(interval_cfg), "vanishing",
                     "--r", "1", "--depth", "12"])
    assert (code, capfd.readouterr().out.strip()) == (0, "CollapseCertified")
    code = cli_main(["--config", str(scale_cfg), "ideal-test", "x1*x2 - 1"])
    assert (code, capfd.readouterr().out.strip()) == (0, "true")
