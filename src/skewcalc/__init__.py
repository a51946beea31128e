"""Seminorm analytics for skew polynomial rings and twisted tensor series."""

from .scalars import GaussianRational
from .words import (
    canonical_word,
    extremal_twists,
    interval,
    partial_sums,
)
from .bases import (
    BaseSpec,
    DiagonalAut,
    EntirePoly,
    Exactness,
    FreeSeries,
    IdentityAut,
    IntervalPoly,
    ScaleAut,
    ShiftAut,
    SparseElement,
    UnsupportedAutomorphism,
    generic_twisted_upper_bound,
    i_w_apply,
    interval_seminorm,
    weighted_seminorm,
)
from .ore import (
    LaurentOrePoly,
    localizability_probe,
    ore_mul,
)
from .tensor import (
    TwistedSeries,
    mul,
    twisted_norm,
)
from .quotient import (
    CannotCertifyError,
    Verdict,
    canonical_representative,
    ideal_member,
    phi,
    quotient_norm,
    reduce_to_ore,
    relators,
    vanishing_test,
)
from .parsing import (
    ConfigError,
    ParseError,
    format_element,
    parse_config_text,
    parse_expr,
    parse_scalar,
)
from .oracles import (
    SearchBudget,
    bruteforce_twisted_norm,
    slice_quotient_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
