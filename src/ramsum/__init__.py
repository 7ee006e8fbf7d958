"""Generalized Ramanujan sums and exact verification of their weighted averages."""

from .arith import (
    Factorization,
    PrimeSieve,
    configure_default_sieve,
    divisors,
    euler_phi,
    factorize,
    gen_gcd,
    jordan_totient,
    moebius,
    moebius_divisors,
    primes_up_to,
    tau_sigma,
    von_mangoldt,
)
from .csum import (
    DEFAULT_CAP,
    CsumEvaluation,
    CsumTable,
    csum_direct,
    csum_eval,
    csum_hoelder,
    csum_moebius,
    csum_table,
    theta,
)
from .errors import InternalConsistencyError, ResourceLimitError
from .exactnum import (
    bernoulli_number,
    bernoulli_poly,
    binomial,
    coprime_power_sum,
    power_sum,
)
from .identities import (
    ALL_IDENTITIES,
    DEFAULT_SWEEP_CAP,
    CheckResult,
    IdentityReport,
    SuiteConfig,
    WeightFunctionSpec,
    check_alkan_classical,
    check_alkan_generalized,
    check_bernoulli_weight,
    check_binomial_weight,
    check_coprime_power_sum,
    check_exp_weight,
    check_g_multiplicative,
    check_gamma_weight,
    check_gauss_product,
    check_gcd_weight,
    check_log_weight,
    check_mu_log_lemma,
    check_multisection,
    check_multivariate,
    check_power_sum,
    g_divisor_sum,
    parse_weight,
    render_report,
    run_suite,
    weight_value,
)
from .logspace import TWO_PI, LogLinear, float_value, mu_log_lemma_sides

__version__ = "0.1.0"
