"""lpairs: Dirichlet L-function pairs sampled at the Riemann zeros.

Exact character arithmetic, certified special functions, a zero engine,
two L-evaluators (fast AFE + slow oracle), the Gonek-Landau explicit
formula, and the discrete mean-value reports behind the two
linear-independence / value-distinctness statistics.
"""

__version__ = "0.1.0"

from .characters import (
    DirichletCharacter,
    character,
    epsilon_factor,
    gauss_sum,
    parse_character,
)
from .criticalline import (
    CriticalLineConfig,
    ThmTwoReport,
    c_constant,
    choose_p,
    make_config,
    thm2_report,
    thm2_sweep,
)
from .landau import (
    landau_error_budgets,
    landau_main_term,
    landau_zero_sum,
    nearest_pp_distance,
    rational_point,
    von_mangoldt,
)
from .lfunc import LValue, l_afe, l_oracle
from .meanvalues import (
    BPolynomial,
    CoefficientSeries,
    MeanValueReport,
    build_b_polynomial,
    predicted_constant,
    series_d,
    series_e,
    thm1_report,
    thm1_sweep,
)
from .specfun import log_gamma, riemann_siegel_theta, x_factor
from .zeros import ZeroTable, compute_zeros, load_zeros
