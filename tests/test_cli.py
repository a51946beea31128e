import contextlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from skewcalc import cli
from skewcalc.bases import BaseSpec, DiagonalAut, ScaleAut, ShiftAut
from skewcalc.cli import main
from skewcalc.parsing import ConfigError

SCALE2_CFG = "base = entire\nautomorphism = scale\nq = 2\n"
INTERVAL_CFG = "base = interval\nautomorphism = shift\n"
Q1I_CFG = "base = entire\nautomorphism = scale\nq = 1+1i\n"
SHIFT_CFG = "automorphism = shift\n"
D5000_CFG = "base = entire\nautomorphism = scale\nq = 2\nD = 5000\n"
Q4_3_CFG = "base = entire\nautomorphism = scale\nq = 4/3\n"
BENCH_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.fixture
def scale2_cfg(tmp_path):
    path = tmp_path / "scale2.cfg"
    path.write_text(SCALE2_CFG)
    return str(path)


@pytest.fixture
def interval_cfg(tmp_path):
    path = tmp_path / "interval.cfg"
    path.write_text(INTERVAL_CFG)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- spot commands -----------------------------------------------------------


def test_qnorm_spot_values(capsys, scale2_cfg):
    base = ["--config", scale2_cfg, "qnorm", "z*x1", "--lambda", "1"]
    code, out, _ = run(capsys, base + ["--rho", "3/2"])
    assert (code, out.strip()) == (0, "0.84375")
    code, out, _ = run(capsys, base + ["--rho", "4"])
    assert (code, out.strip()) == (0, "4.0")
    code, out, _ = run(capsys, base + ["--rho", "1"])
    assert (code, out.strip()) == (0, "0.0")


def test_vanishing_spot(capsys, interval_cfg):
    code, out, _ = run(
        capsys, ["--config", interval_cfg, "vanishing", "--r", "1", "--depth", "12"]
    )
    assert code == 0
    assert out.strip() == "CollapseCertified"


def test_ideal_test_spot(capsys, scale2_cfg):
    code, out, _ = run(capsys, ["--config", scale2_cfg, "ideal-test", "x1*x2 - 1"])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, ["--config", scale2_cfg, "ideal-test", "x1"])
    assert (code, out.strip()) == (0, "false")


# -- other commands ----------------------------------------------------------


def test_mul_series_and_ore(capsys, scale2_cfg):
    code, out, _ = run(capsys, ["--config", scale2_cfg, "mul", "x1", "x2"])
    assert (code, out.strip()) == (0, "x1*x2")
    code, out, _ = run(capsys, ["--config", scale2_cfg, "mul", "t", "z"])
    assert (code, out.strip()) == (0, "(2*z)*t")
    code, _, err = run(capsys, ["--config", scale2_cfg, "mul", "t", "x1"])
    assert code == 3


def test_norm_series_and_ore(capsys, scale2_cfg):
    code, out, _ = run(
        capsys, ["--config", scale2_cfg, "norm", "z*x1", "--lambda", "1", "--rho", "2"]
    )
    assert (code, out.strip()) == (0, "2.0 (exact)")
    code, out, _ = run(
        capsys, ["--config", scale2_cfg, "norm", "t + t^-1", "--rho", "2"]
    )
    assert (code, out.strip()) == (0, "4.0 (exact)")
    # the tokenizer stops at trailing whitespace
    assert run(capsys, ["--config", scale2_cfg, "norm", "x1 "]) == (0, "1.0 (exact)\n", "")


def test_table_sorted_with_header(capsys, scale2_cfg):
    code, out, _ = run(
        capsys,
        ["--config", scale2_cfg, "table", "z*x1",
         "--lambda-grid", "2,1", "--rho-grid", "1,1/2"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,rho,value,exactness"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["1.0", "0.5"], ["1.0", "1.0"], ["2.0", "0.5"], ["2.0", "1.0"]
    ]
    assert lines[2] == "1.0,1.0,1.0,exact"


def test_table_laurent_rows(capsys, scale2_cfg):
    code, out, _ = run(
        capsys,
        ["--config", scale2_cfg, "table", "t + t^-1",
         "--lambda-grid", "2,1", "--rho-grid", "1,1/2"],
    )
    assert code == 0
    assert out.splitlines() == [
        "lambda,rho,value,exactness",
        "1.0,0.5,0.0,exact", "1.0,1.0,2.0,exact",
        "2.0,0.5,0.0,exact", "2.0,1.0,2.0,exact",
    ]
    code, out, _ = run(
        capsys, ["--config", scale2_cfg, "table", "t + t^-1", "--lambda-grid", ""]
    )
    assert (code, out) == (2, "")


_CLASS_QS = {"2": SCALE2_CFG, "1/2": "q = 1/2\n", "1+1i": Q1I_CFG}
_CLASS_SERIES = ("z*x1", "z^2*x1*x1 - 1/2*x2 + 3", "(1+1i)*z*x2*x2*x1 + z^3*x1*x2")


@pytest.mark.parametrize("q", _CLASS_QS)
def test_norm_of_a_class_is_its_quotient_seminorm(capsys, tmp_path, q):
    # the t picture prints the one seminorm of the class: qnorm's value, exact
    path = tmp_path / "scale.cfg"
    path.write_text(_CLASS_QS[q])
    cfg = ["--config", str(path)]
    for series in _CLASS_SERIES:
        code, ore, _ = run(capsys, cfg + ["to-ore", series])
        assert code == 0 and "t" in ore
        for lam, rho in (("1", "1"), ("1", "3/2"), ("2", "4"), ("1/2", "2")):
            index = ["--lambda", lam, "--rho", rho]
            code, qnorm, _ = run(capsys, cfg + ["qnorm", series, *index])
            assert code == 0
            norm = run(capsys, cfg + ["norm", ore.strip(), *index])
            assert norm == (0, f"{qnorm.strip()} (exact)\n", ""), (series, lam, rho)
        code, out, _ = run(capsys, cfg + ["table", ore.strip(), "--lambda-grid", "1/2,2",
                                          "--rho-grid", "1,3/2,4"])
        assert code == 0
        for row in out.splitlines()[1:]:
            lam, rho, value, tag = row.split(",")
            qnorm = run(capsys, cfg + ["qnorm", series, "--lambda", lam, "--rho", rho])
            assert (qnorm, tag) == ((0, f"{value}\n", ""), "exact"), row


_OFF_THE_QUOTIENT = {
    "identity": ("automorphism = identity\n", "t*z"),
    "interval": ((BENCH_CONFIGS / "interval.cfg").read_text(), "t*z"),
    "free": ((BENCH_CONFIGS / "free.cfg").read_text(), "g1*t"),
    "unit q": ("q = 3/5 + 4/5i\n", "t*z"),
}


@pytest.mark.parametrize("name", _OFF_THE_QUOTIENT)
def test_t_input_off_the_quotient_base_exit_code(capsys, tmp_path, name):
    # a t input's seminorm is the quotient's, which needs entire/scale with |q| != 1
    text, expr = _OFF_THE_QUOTIENT[name]
    path = tmp_path / "base.cfg"
    path.write_text(text)
    cfg = ["--config", str(path)]
    _, _, message = run(capsys, cfg + ["qnorm", expr])
    assert message.startswith("unsupported configuration")
    for command in ("norm", "table"):
        assert run(capsys, cfg + [command, expr]) == (3, "", message), command


def test_truncated_input_is_reported(capsys):
    # x1^17 exceeds the default word cap L = 16: the caps drop every term
    code, out, err = run(capsys, ["norm", "x1^17"])
    assert (code, out.strip()) == (0, "0.0 (truncated)")
    assert "warning: terms beyond the caps were dropped" in err
    code, out, err = run(capsys, ["table", "x1^17", "--rho-grid", "1,2"])
    assert code == 0
    assert out.splitlines()[1:] == ["1.0,1.0,0.0,truncated", "1.0,2.0,0.0,truncated"]
    assert "warning" in err
    # every other command refuses an input, or a product, that the caps cut down
    for argv in (["ideal-test", "x1^17"], ["qnorm", "x1^17", "--rho", "2"], ["phi", "x1^17"],
                 ["reduce", "x1^17"], ["to-ore", "x1^17"], ["mul", "x1^10", "x1^10"],
                 ["vanishing", "--r", "z^40"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "caps L = 16 and D = 32" in err
    code, out, err = run(capsys, ["norm", "x1^16"])
    assert (code, out.strip(), err) == (0, "1.0 (exact)", "")


def test_atom_beyond_the_caps_is_dropped(capsys, tmp_path):
    # an atom beyond the caps drops with the flag set, as a product's term does
    path = tmp_path / "caps.cfg"
    path.write_text("L = 0\n")
    cfg = ["--config", str(path)]
    code, out, err = run(capsys, cfg + ["norm", "x1"])
    assert (code, out) == (0, "0.0 (truncated)\n")
    assert "warning: terms beyond the caps were dropped" in err
    code, out, _ = run(capsys, cfg + ["table", "x1"])
    assert (code, out.splitlines()[1:]) == (0, ["1.0,1.0,0.0,truncated"])
    code, out, err = run(capsys, cfg + ["mul", "x1", "x2"])
    assert (code, out) == (2, "")
    assert "terms beyond the caps L = 0 and D = 32 were dropped" in err
    path.write_text("D = 0\n")
    assert run(capsys, cfg + ["norm", "z"])[:2] == (0, "0.0 (truncated)\n")


def test_one_term_products_under_the_caps(capsys, tmp_path):
    # a product of atoms beyond the caps drops with the flag set, as a
    # product's term does; a zero coefficient never sets the flag
    for source in ("0*x1^17", "x1^17*0", "x1^8*x1^9", "z^33*x1"):
        assert run(capsys, ["norm", source])[:2] == (0, "0.0 (truncated)\n"), source
    assert run(capsys, ["norm", "0*" + "*".join(["x1"] * 17)])[:2] == (0, "0.0 (exact)\n")
    assert run(capsys, ["norm", "(x1 + 1)^17"])[:2] == (0, "131071.0 (truncated)\n")
    path = tmp_path / "shift.cfg"
    path.write_text(SHIFT_CFG)
    code, out, _ = run(capsys, ["--config", str(path), "to-ore", "x1*z^3*x2*z"])
    assert (code, out) == (0, "z^4 - 3*z^3 + 3*z^2 - z\n")


def test_quotient_commands_read_the_ore_picture(capsys):
    # the quotient depends only on the class: z*t is the class of z*x1
    for argv in (["qnorm", "{}", "--rho", "3/2"], ["reduce", "{}", "--rho", "3/2"],
                 ["phi", "{}"], ["ideal-test", "{}"], ["to-ore", "{}"]):
        series = run(capsys, [arg.format("z*x1") for arg in argv])
        ore = run(capsys, [arg.format("z*t") for arg in argv])
        assert ore == series and ore[0] == 0, argv
    assert run(capsys, ["qnorm", "z*t", "--rho", "3/2"])[1] == "0.84375\n"
    assert run(capsys, ["mul", "t", "x1"])[0] == 3


def test_phi_outputs(capsys, scale2_cfg):
    code, out, _ = run(
        capsys, ["--config", scale2_cfg, "phi", "z*x1", "--m", "1", "--n", "1"]
    )
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, ["--config", scale2_cfg, "phi", "z*x1 + x2"])
    assert code == 0
    assert out.splitlines() == ["phi(0,-1) = 1", "phi(1,1) = 1"]


def test_phi_of_a_relator_prints_zero(capsys):
    assert run(capsys, ["phi", "x1*x2 - 1"]) == (0, "0\n", "")


def test_phi_needs_both_indices(capsys):
    # a lone --m or --n used to print the whole table
    for flag in ("--m", "--n"):
        code, out, err = run(capsys, ["phi", "z*x1", flag, "1"])
        assert (code, out) == (2, "")
        assert err.strip() == "error: phi takes --m and --n together, or neither"


def test_to_ore(capsys, scale2_cfg):
    code, out, _ = run(capsys, ["--config", scale2_cfg, "to-ore", "x1*x2"])
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, ["--config", scale2_cfg, "to-ore", "z*x1*x2*x1"])
    assert (code, out.strip()) == (0, "(z)*t")


def test_reduce_shows_representative_and_drops(capsys, scale2_cfg):
    code, out, _ = run(
        capsys, ["--config", scale2_cfg, "reduce", "z*x1", "--rho", "3/2"]
    )
    assert code == 0
    assert "x1^2*x2" in out
    code, out, _ = run(capsys, ["--config", scale2_cfg, "reduce", "z*x1", "--rho", "1"])
    assert code == 0
    assert out.splitlines()[0] == "0"
    assert "dropped classes: (m=1, n=1)" in out


def test_reduce_contracting_scale_mirrors(capsys, tmp_path):
    # q = 1/2: the mirror of what q = 2 prints for z*x1, by the swap symmetry
    cfg = tmp_path / "scale1_2.cfg"
    cfg.write_text("base = entire\nautomorphism = scale\nq = 1/2\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "reduce", "z*x2", "--rho", "3/2"])
    assert (code, out) == (0, "(z)*x2^2*x1\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "reduce", "z*x2", "--rho", "1"])
    assert (code, out) == (0, "0\ndropped classes: (m=1, n=-1)\n")


def test_reduce_regime_boundary_is_exact(capsys, tmp_path):
    # |q|^2 = 2 equals rho = 2: the class keeps the plain word x1
    cfg = tmp_path / "q1i.cfg"
    cfg.write_text(Q1I_CFG)
    argv = ["--config", str(cfg), "--rho", "2", "reduce", "--", "z^2*x1"]
    code, out, _ = run(capsys, argv)
    assert (code, out.strip()) == (0, "(z^2)*x1")
    # rho = 4/3 reaches the regimes exactly, not rounded to a float below
    # |q| = 4/3 and rho^2 = |q|^2: z*x1 stays plain, and class (2, 1) is
    # padded (quotient seminorm 3/4), not dropped
    cfg = tmp_path / "q4_3.cfg"
    cfg.write_text(Q4_3_CFG)
    code, out, _ = run(capsys, ["--config", str(cfg), "reduce", "z*x1", "--rho", "4/3"])
    assert (code, out.strip()) == (0, "(z)*x1")
    code, out, _ = run(capsys, ["--config", str(cfg), "qnorm", "z^2*x1", "--rho", "4/3"])
    assert code == 0 and float(out) == pytest.approx(0.75, rel=1e-12)


def test_qnorm_drops_class_beyond_float_range(capsys, tmp_path):
    # |q|^1200 = 2^1200 overflows a float but exceeds rho^2 = 4 exactly
    cfg = tmp_path / "d5000.cfg"
    cfg.write_text(D5000_CFG)
    argv = ["--config", str(cfg), "--rho", "2", "qnorm", "--", "z^1200*x1"]
    code, out, _ = run(capsys, argv)
    assert (code, out.strip()) == (0, "0.0")


def test_localizability(capsys, scale2_cfg):
    code, out, _ = run(capsys, ["--config", scale2_cfg, "localizability"])
    assert code == 0
    assert "forward growing" in out
    assert "no negative certificate" in out


PROBE_LINE = "lambda={}: forward growing (sup ratio {}), inverse {} (sup ratio {})\n"
UNCERTIFIED = "  family not certified bounded at this seminorm (no negative certificate implied)\n"


@pytest.mark.parametrize("argv, lam, forward, inverse", [
    # lambda^m overflowed, though the ratio is 2^8 = 256
    (["--lambda", "1e300"], "1e+300", "256", ("bounded", "1")),
    # monomials whose seminorm underflowed to 0.0 were dropped: sup ratio 1
    (["--lambda", "1e-400"], "0.0", "256", ("bounded", "1")),
    (["--depth", "600"], "1.0", "4.14952e+180", ("bounded", "1")),
    # 2^41 - 1 words: the probe builds none of them
    (["--config", str(BENCH_CONFIGS / "free.cfg"), "--depth", "40"], "1.0", "1.09951e+12",
     ("growing", "1.09951e+12")),
])
def test_localizability_sup_ratio_closed_form(capsys, argv, lam, forward, inverse):
    expected = PROBE_LINE.format(lam, forward, *inverse) + UNCERTIFIED
    assert run(capsys, ["localizability", *argv]) == (0, expected, "")


def test_vanishing_underflow_is_not_a_certificate(capsys):
    # q = 2, r = 1: every per-word seminorm is 1; only rho^(2k) underflows
    argv = ["--rho", "1e-200", "vanishing", "--r", "1", "--depth", "4"]
    code, out, _ = run(capsys, argv)
    assert (code, out.strip()) == (0, "RapidDecayObserved")


def test_a_constant_beyond_the_squared_float_range_keeps_its_modulus(capsys):
    # |c|^2 = 1e-600 underflows and 1e400 overflows a float, though |c| is in
    # range: the vanishing constant (1/10)^300 was a CollapseCertified, and
    # norm "10^200" exited 2 on an overflow
    code, out, _ = run(capsys, ["vanishing", "--r", "(1/10)^300", "--depth", "3"])
    assert (code, out.strip()) == (0, "RapidDecayObserved")
    assert run(capsys, ["norm", "10^200"]) == (0, "1e+200 (exact)\n", "")
    assert run(capsys, ["norm", "10^400"]) == (2, "", OVERFLOW)


def test_scale_twisted_constant_survives_an_underflowed_radius(capsys, tmp_path):
    # q = 2: lambda * 2^-k underflows to 0.0 from k = 1075, but a constant's
    # seminorm is |c| at every radius
    code, out, err = run(capsys, ["vanishing", "--r", "1", "--depth", "1100"])
    assert (code, out.strip(), err) == (0, "NoDecay", "")
    path = tmp_path / "long.cfg"
    path.write_text("L = 3000\n")
    code, out, _ = run(capsys, ["--config", str(path), "norm", "x1^1100*x2", "--rho", "1"])
    assert (code, out.strip()) == (0, "1.0 (exact)")
    # a nonconstant element names the underflow, not the radius
    code, out, err = run(capsys, ["--config", str(path), "norm", "z*x1^1100*x2", "--rho", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the effective radius") and "underflows" in err


@pytest.mark.parametrize("expr, lam, expected", [
    # an irrational interior critical point: the value reads the refined cell
    ("z^4 - 2*z^2 + 1/3*z", "3/2", "1.3400101954252286 (exact)"),
    # the critical points +-1 are bisection midpoints of [-2, 2]
    ("(z^3 - 3*z)*x1", "2", "2.0 (exact)"),
    # repeated critical points
    ("(z^2 - 1)^3", "3/2", "1.953125 (exact)"),
])
def test_interval_sup_norm_spot_values(capsys, interval_cfg, expr, lam, expected):
    code, out, _ = run(capsys, ["--config", interval_cfg, "norm", expr, "--lambda", lam])
    assert (code, out.strip()) == (0, expected)


def test_vanishing_r_must_be_a_base_element(capsys):
    for r, message in (("x1", "expected a base-algebra element without x1/x2"),
                       ("t", "expected a base-algebra element")):
        expected = (3, "", f"unsupported configuration: {message}\n")
        assert run(capsys, ["vanishing", "--r", r]) == expected


def test_vanishing_csv_format(capsys, interval_cfg):
    code, out, _ = run(
        capsys,
        ["--config", interval_cfg, "vanishing", "--r", "1", "--depth", "3",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,rho,k,value,verdict"
    assert len(lines) == 4  # one row per k
    assert all(line.endswith(",CollapseCertified") for line in lines[1:])
    # line endings are "\n", as in the table command
    assert not any(line.endswith("\r") for line in out.split("\n"))


def test_default_config_is_scaling_base(capsys):
    code, out, _ = run(capsys, ["qnorm", "z*x1", "--rho", "4"])
    assert (code, out.strip()) == (0, "4.0")


@pytest.mark.parametrize("base, spec", [
    ("entire", BaseSpec("entire", ScaleAut(2))),
    ("interval", BaseSpec("interval", ShiftAut())),
    ("free", BaseSpec("free", DiagonalAut((2, Fraction(1, 2))))),
    ("free(3)", None),  # three generators, the two default factors
])
def test_each_base_has_its_default_automorphism(tmp_path, base, spec):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(f"base = {base}\n")
    if spec is None:
        with pytest.raises(ConfigError, match="one factor per generator"):
            cli.load_config(str(cfg))
    else:
        assert cli.load_config(str(cfg)).spec == spec


# -- error handling ----------------------------------------------------------


def test_parse_error_exit_code(capsys, scale2_cfg):
    code, _, err = run(capsys, ["--config", scale2_cfg, "qnorm", "z*("])
    assert code == 2
    assert "parse error" in err


def test_config_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("base entire\n")
    code, _, err = run(capsys, ["--config", str(bad), "qnorm", "z*x1"])
    assert code == 2
    assert "config error" in err
    worse = tmp_path / "worse.cfg"
    worse.write_text("base = lattice\n")
    code, _, err = run(capsys, ["--config", str(worse), "qnorm", "z*x1"])
    assert code == 2
    for text in ("q = 0\n", "q = 1/0\n", "D = abc\n",
                 # unknown keys, removed ones among them, never fall back to defaults
                 "format = csv\n", "automorphsm = identity\n", "derivation = ddz\n",
                 # three generators, two diagonal factors
                 "base = free(3)\nautomorphism = diagonal\nq = 2, 1/2\n",
                 # a zero diagonal factor
                 "base = free(2)\nautomorphism = diagonal\nq = 2, 0\n"):
        malformed = tmp_path / "malformed.cfg"
        malformed.write_text(text)
        code, _, err = run(capsys, ["--config", str(malformed), "qnorm", "z*x1"])
        assert code == 2
        assert "config error" in err


def test_config_error_names_the_value(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for text, message in (("base = free(x)\n", "bad base spec 'free(x)'"),
                          ("automorphism = twist\n", "unknown automorphism 'twist'"),
                          # derivation is no key: t a = alpha(a) t is the one commutation rule
                          ("derivation = ddz\n", "unknown key 'derivation'"
                           " (known: base, automorphism, q, L, D)"),
                          # free(0) was a base without generators; under free(-2)
                          # g1 was an unknown generator
                          ("base = free(0)\nautomorphism = identity\n",
                           "a free base needs at least one generator"),
                          ("base = free(-2)\nautomorphism = identity\n",
                           "a free base needs at least one generator"),
                          # only free and free(<int>) name the free base
                          ("base = freedom\n", "bad base spec 'freedom'"),
                          ("base = free(2)x\n", "bad base spec 'free(2)x'"),
                          ("base = free( 2)\n", "bad base spec 'free( 2)'"),
                          # a repeated key used to keep its last value
                          ("q = 2\nq = 3\n", "line 2: repeated key 'q'")):
        cfg.write_text(text)
        argv = ["--config", str(cfg), "qnorm", "z*x1"]
        assert run(capsys, argv) == (2, "", f"config error: {message}\n"), text


def test_benchmark_free_config(capsys):
    # base = free(2): the free base with two generators, g1 scaled by 2
    argv = ["--config", str(BENCH_CONFIGS / "free.cfg")]
    assert run(capsys, argv + ["mul", "g1*x1", "g2*x2"]) == (0, "(1/2*g1*g2)*x1*x2\n", "")
    assert run(capsys, argv + ["norm", "g1"]) == (0, "1.0 (exact)\n", "")


@pytest.mark.parametrize("method, argv, calls", [
    # each per-word seminorm is computed once per lambda, not once per rho
    ("twisted_seminorm", ["vanishing", "--r", "z", "--lambda-grid", "1,2",
                          "--rho-grid", "1,2,3", "--depth", "6"], 2 * 6),
    # the probe reads alpha's parameters and computes no seminorm, at any depth
    ("seminorm", ["localizability", "--depth", "4"], 0),
    ("seminorm", ["localizability", "--depth", "40"], 0),
])
def test_read_path_seminorm_calls(capsys, monkeypatch, interval_cfg, method, argv, calls):
    original = getattr(BaseSpec, method)
    seen = []

    def counted(self, *args):
        seen.append(args)
        return original(self, *args)

    monkeypatch.setattr(BaseSpec, method, counted)
    code, _, _ = run(capsys, ["--config", interval_cfg, *argv])
    assert (code, len(seen)) == (0, calls)


def test_underflowed_upper_bound_is_tagged_upper_bound(capsys, tmp_path):
    # the slot bound 1e-400 reads 0.0, which is no exact zero
    cfg = tmp_path / "shift.cfg"
    cfg.write_text(SHIFT_CFG)
    argv = ["--config", str(cfg)]
    code, out, _ = run(capsys, argv + ["norm", "z^2*x1*x2", "--lambda", "1e-200"])
    assert (code, out) == (0, "0.0 (upper_bound)\n")
    code, out, _ = run(capsys, argv + ["table", "z^2*x1*x2", "--lambda-grid", "1e-200,1"])
    assert code == 0
    assert out.splitlines()[1] == "1e-200,1.0,0.0,upper_bound"


def test_closed_stdout_exits_zero_without_a_traceback():
    # about 124 KB of rows, more than a pipe holds: the writer is still
    # writing when the reader closes after the header
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "skewcalc.cli", "vanishing", "--r", "1",
            "--depth", "5000", "--format", "csv"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"lambda,rho,k,value,verdict\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_missing_config_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, ["--config", str(tmp_path / "absent.cfg"), "norm", "1"])
    assert code == 2


def test_non_utf8_config_exit_code(capsys, tmp_path):
    # this ended in a UnicodeDecodeError traceback with exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe = 2\n")
    code, out, err = run(capsys, ["--config", str(cfg), "norm", "x1"])
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "Traceback" not in err


def test_config_error_is_a_plain_exception():
    # a frozen dataclass could not take the traceback a generator-based
    # context manager sets, nor a note, so both raised FrozenInstanceError
    @contextlib.contextmanager
    def block():
        yield

    with pytest.raises(ConfigError, match="unknown base 'nope'"):
        with block():
            cli._build_config({"base": "nope"})
    exc = ConfigError("x")
    exc.add_note("n")
    assert (str(exc), exc.__notes__) == ("x", ["n"])


def test_unsupported_configuration_exit_code(capsys, interval_cfg):
    code, _, err = run(capsys, ["--config", interval_cfg, "qnorm", "z*x1"])
    assert code == 3
    assert "unsupported configuration" in err


def test_float_overflow_exit_code(capsys, tmp_path):
    # the class is kept at rho = 1e200, and rho^3 overflows a float
    cfg = tmp_path / "d5000.cfg"
    cfg.write_text(D5000_CFG)
    argv = ["--config", str(cfg), "--rho", "1e200", "qnorm", "--", "z^1200*x1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


OVERFLOW = "error: a value overflows the float range (largest magnitude 1.798e+308)\n"


def test_float_overflow_prints_no_inf(capsys):
    # these printed inf with exit 0, or an errno tuple; table printed its inf row
    big = ["--rho", "1e300", "--lambda", "1e300"]
    for argv in (["norm", "z*x1", *big], ["qnorm", "z*x1", *big], ["norm", "z^7*x1", *big],
                 ["table", "z*x1", "--rho-grid", "1e300", "--lambda", "1e300"],
                 ["table", "z*x1", "--lambda-grid", "1,1e400"],
                 ["localizability", "--depth", "2000"],
                 # a shift by 1 at half-width 1e-400 grows by about 1e400 per degree
                 ["--config", str(BENCH_CONFIGS / "interval.cfg"), "localizability",
                  "--lambda", "1e-400"],
                 ["vanishing", "--r", "z", "--format", "csv", *big]):
        assert run(capsys, argv) == (2, "", OVERFLOW), argv


def test_vanishing_without_certificate_exit_code(capsys, tmp_path):
    # free base, diagonal action: only nonzero upper bounds are available
    cfg = tmp_path / "free.cfg"
    cfg.write_text("base = free(2)\nautomorphism = diagonal\nq = 2, 1/2\n")
    code, out, err = run(capsys, ["--config", str(cfg), "vanishing", "--r", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_operand_count_exit_code(capsys):
    for argv, message in ((["norm"], "norm takes 1 expression, got 0"),
                          (["mul", "x1"], "mul takes 2 expressions, got 1"),
                          (["qnorm"], "qnorm takes 1 expression, got 0"),
                          # a surplus operand is not silently dropped either
                          (["mul", "x1", "x2", "x1"], "mul takes 2 expressions, got 3"),
                          (["vanishing", "x1"], "vanishing takes 0 expressions, got 1")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"


def test_option_the_command_does_not_read_exit_code(capsys):
    # each of these used to be ignored, with exit 0
    for argv, message in ((["norm", "z*x1", "--m", "1", "--depth", "3", "--r", "2"],
                           "norm does not read --depth, --m, --r"),
                          (["qnorm", "z*x1", "--rho", "4", "--format", "csv"],
                           "qnorm does not read --format"),
                          (["--depth", "3", "norm", "x1"], "norm does not read --depth"),
                          (["mul", "x1", "x2", "--rho", "1"], "mul does not read --rho"),
                          (["reduce", "z*x1", "--lambda", "2"], "reduce does not read --lambda"),
                          (["to-ore", "x1", "--rho", "2"], "to-ore does not read --rho")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"


def test_each_command_accepts_the_options_it_reads(capsys):
    # a value and its grid are alternatives, so those commands get two argvs
    argvs = {
        "mul": [["mul", "x1", "x2"]],
        "norm": [["norm", "z*x1", "--lambda", "2", "--rho", "2"]],
        "qnorm": [["qnorm", "z*x1", "--lambda", "1", "--rho", "3/2"]],
        "reduce": [["reduce", "z*x1", "--rho", "3/2"]],
        "phi": [["phi", "z*x1", "--m", "1", "--n", "1"]],
        "ideal-test": [["ideal-test", "x1"]],
        "to-ore": [["to-ore", "x1"]],
        "localizability": [["localizability", "--lambda", "2", "--depth", "3"],
                           ["localizability", "--lambda-grid", "1,2", "--depth", "3"]],
        "vanishing": [["vanishing", "--lambda", "1", "--rho", "1", "--depth", "3", "--r", "1",
                       "--format", "csv"],
                      ["vanishing", "--lambda-grid", "1", "--rho-grid", "1,2", "--depth", "3"]],
        "table": [["table", "z*x1", "--lambda", "1", "--rho", "1"],
                  ["table", "z*x1", "--lambda-grid", "1,2", "--rho-grid", "1"]],
    }
    assert set(argvs) == set(cli._COMMANDS)
    for command, runs in argvs.items():
        flags = {token for argv in runs for token in argv if token.startswith("--")}
        assert flags == set(cli._COMMANDS[command][1])
        for argv in runs:
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "") and out


def test_value_and_its_grid_exit_code(capsys):
    # the single value used to be dropped silently, with exit 0
    for argv, message in ((["table", "z*x1", "--lambda", "5", "--lambda-grid", "1", "--rho", "3"],
                           "table takes --lambda or --lambda-grid, not both"),
                          (["localizability", "--lambda", "2", "--lambda-grid", "1"],
                           "localizability takes --lambda or --lambda-grid, not both"),
                          (["vanishing", "--rho", "1", "--rho-grid", "1,2"],
                           "vanishing takes --rho or --rho-grid, not both")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"


def test_bad_rho_exit_code(capsys, scale2_cfg):
    code, _, err = run(capsys, ["--config", scale2_cfg, "norm", "z*x1", "--rho", "0"])
    assert code == 2
    # a grid command fails before it prints anything
    for argv in (["vanishing", "--rho-grid", "0"], ["vanishing", "--rho-grid", "1,-1"],
                 ["table", "x1", "--rho-grid", "-1"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err.strip()) == (2, "", "error: rho must be positive")


def test_nonpositive_rho_exit_code_on_every_quotient_path(capsys):
    for argv in (["qnorm", "z*x1", "--rho", "-2"], ["reduce", "z*x1", "--rho", "0"]):
        assert run(capsys, argv) == (2, "", "error: rho must be positive\n"), argv


_NONPOSITIVE_LAMBDA = [
    # the shift zero certificate answered before lambda was read
    ("shift", ["vanishing", "--r", "1", "--lambda", "-3"], "radius"),
    ("shift", ["norm", "z*x1^5", "--lambda", "0"], "radius"),
    # the one-letter word of the representative
    ("scale", ["qnorm", "z*x1", "--lambda", "-1"], "radius"),
    # a zero element has no term whose seminorm would read lambda
    ("scale", ["norm", "0", "--lambda", "-1"], "radius"),
    ("scale", ["table", "0", "--lambda", "-1"], "radius"),
    ("scale", ["norm", "0*t", "--lambda", "-1"], "radius"),
    ("interval", ["norm", "0", "--lambda", "-1"], "half-width"),
    ("interval", ["norm", "z*x1*x2*x2", "--lambda", "-1"], "half-width"),
]


@pytest.mark.parametrize("base, argv, message", _NONPOSITIVE_LAMBDA,
                         ids=[f"{base}: {' '.join(argv)}" for base, argv, _ in _NONPOSITIVE_LAMBDA])
def test_nonpositive_lambda_exit_code(capsys, tmp_path, base, argv, message):
    path = tmp_path / "base.cfg"
    path.write_text({"scale": SCALE2_CFG, "shift": SHIFT_CFG, "interval": INTERVAL_CFG}[base])
    argv = ["--config", str(path), *argv]
    assert run(capsys, argv) == (2, "", f"error: {message} must be positive\n")


def test_negative_caps_are_config_errors(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    for text, message in (("L = -1\n", "L must be nonnegative, got -1"),
                          ("D = -5\n", "D must be nonnegative, got -5")):
        cfg.write_text(text)
        assert run(capsys, ["--config", str(cfg), "norm", "2"]) == (
            2, "", f"config error: {message}\n")
    # zero caps still hold the constants
    for text in ("L = 0\n", "D = 0\n"):
        cfg.write_text(text)
        assert run(capsys, ["--config", str(cfg), "norm", "2"]) == (0, "2.0 (exact)\n", "")


def test_bad_fraction_option_exit_code(capsys):
    # a zero denominator used to escape argparse as a ZeroDivisionError
    for flag in ("--rho", "--lambda"):
        for value in ("1/0", "abc"):
            with pytest.raises(SystemExit) as exc:
                main(["norm", "x1", flag, value])
            err = capsys.readouterr().err
            assert exc.value.code == 2
            assert f"argument {flag}: invalid Fraction value: {value!r}" in err
            assert "Traceback" not in err
    # a grid entry is read by the command, and reported with the same wording
    for flag in ("--lambda-grid", "--rho-grid"):
        for value in ("1/0", "a"):
            code, out, err = run(capsys, ["table", "x1", flag, f"1,{value}"])
            assert (code, out) == (2, "")
            assert err.strip() == f"error: argument {flag}: invalid Fraction value: {value!r}"


def test_depth_zero_is_not_the_default(capsys):
    # an explicit 0 used to fall back to the default depth
    for argv, message in ((["vanishing", "--r", "1", "--depth", "0"], "depth must be at least 1"),
                          (["localizability", "--depth", "0"], "degree cap must be at least 1")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"
        negative = argv[:-1] + ["-1"]
        assert run(capsys, negative) == (code, out, err)


# -- argument order ----------------------------------------------------------


@pytest.mark.parametrize("argv, expected", [
    (["norm", "--rho", "2", "z*x1"], "2.0 (exact)"),
    (["--rho", "2", "norm", "z*x1"], "2.0 (exact)"),
    (["norm", "z*x1", "--rho", "2"], "2.0 (exact)"),
    (["mul", "x1", "--config", "SCALE2", "x2"], "x1*x2"),
    (["mul", "--config", "SCALE2", "x1", "x2"], "x1*x2"),
    (["norm", "-z^4*x1"], "1.0 (exact)"),
    (["norm", "-z^4*x1", "--rho", "2"], "2.0 (exact)"),
    (["norm", "--rho", "2", "--", "-z^4*x1"], "2.0 (exact)"),
    (["mul", "-x1", "x2"], "(-1)*x1*x2"),
    (["mul", "x2", "-x1"], "(-1)*x2*x1"),
    (["mul", "--", "-x1", "x2"], "(-1)*x1*x2"),
    (["norm", "x1", "--rho", "2", "--"], "2.0 (exact)"),
    # a value that starts with '-' is attached with '='
    (["vanishing", "--r=-1/2", "--depth", "2"], "NoDecay"),
])
def test_options_and_operands_in_any_order(capsys, scale2_cfg, argv, expected):
    # mul reads no option but --config
    argv = [scale2_cfg if token == "SCALE2" else token for token in argv]
    code, out, err = run(capsys, argv)
    assert (code, out.strip(), err) == (0, expected, "")


def test_unknown_option_is_still_rejected(capsys):
    # qnorm has one closed form; --paper-display selected a second one
    for argv, flag in ((["norm", "z*x1", "--rhoo", "2"], "--rhoo"),
                       (["norm", "--rhoo", "2", "z*x1"], "--rhoo"),
                       (["qnorm", "z*x1", "--paper-display"], "--paper-display"),
                       # a prefix of an option is no abbreviation of it
                       (["vanishing", "--dep", "2"], "--dep"),
                       (["localizability", "--lambda-g", "1,2"], "--lambda-g")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_repeated_option_is_rejected(capsys, scale2_cfg):
    # the last value used to win silently; a repeated config key is an error too
    for argv, flag in ((["norm", "x1", "--rho", "2", "--rho", "3"], "--rho"),
                       (["norm", "--rho=2", "x1", "--rho", "2"], "--rho"),
                       (["vanishing", "--depth", "2", "--depth", "3"], "--depth"),
                       (["--config", scale2_cfg, "norm", "x1", "--config", scale2_cfg],
                        "--config")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: given more than once" in err


def test_operand_before_the_command_is_rejected(capsys):
    # it would otherwise be read after the operands that follow the command,
    # also where an option's value repeats the command's name
    for argv in (["-x1", "mul", "x2"], ["--r", "mul", "-x1", "mul", "x2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: -x1" in capsys.readouterr().err


def test_everything_after_the_separator_is_an_operand(capsys):
    for argv, got in ((["norm", "--", "-z", "--rho", "2"], 3),
                      (["norm", "x1", "--rho", "2", "--", "--rho"], 2),
                      (["norm", "x1", "--", "--", "x2"], 3)):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: norm takes 1 expression, got {got}"


def test_parser_is_built_once(capsys, monkeypatch, scale2_cfg):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    base = ["--config", scale2_cfg, "qnorm", "z*x1", "--rho", "3/2"]
    assert run(capsys, base) == (0, "0.84375\n", "")
    # consecutive calls share no option value: each falls back to the defaults
    first = cli._parse_args(["qnorm", "x1", "--rho", "2", "--depth", "3"])
    second = cli._parse_args(["qnorm", "x1"])
    assert (first.rho, first.depth) == (2, 3)
    assert (second.rho, second.depth) == (1, None)
    assert second.exprs == ["x1"]
