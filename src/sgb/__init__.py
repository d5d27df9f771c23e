"""Groebner bases of homogeneous ideals over prime fields via Macaulay
matrices, Hilbert-series regularity certificates, and solving-degree bounds.
"""

from types import ModuleType as _ModuleType

from .core import (
    LinearChange,
    PolySystem,
    Polynomial,
    PrimeField,
    apply_linear_change,
    apply_to_system,
    dehomogenize,
    drl_compare,
    drl_key,
    homogenize,
    homogenize_system,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monom_to_string,
    monomials_of_degree,
    poly_to_string,
    top_part,
)
from .engine import (
    GroebnerBasis,
    MacaulayMatrix,
    RrefResult,
    buchberger,
    build_macaulay,
    gb_up_to,
    leading_monomial_ideal,
    max_gb_deg,
    rref_block,
    rref_naive,
)
from .hilbert import (
    HilbertProfile,
    MonomialIdeal,
    expand_hilbert_series,
    hilbert_function,
    hilbert_numerator,
    krull_dim,
    minimalize,
    regularity_profile,
)
from .series import (
    BoundReport,
    TruncSeries,
    bound_report,
    complexity_estimate,
    degree_bound_Dnm,
    froberg_series,
    lazard_bound,
    positive_truncate,
    truncated_froberg_polynomial,
)
from .analysis import (
    CertificationReport,
    PositionChange,
    TheoremReport,
    build_sigma,
    certify_d_regular,
    certify_semiregular,
    check_noether_position,
    check_weakly_revlex,
    exact_hilbert_of_ideal,
    find_linear_form,
    first_defect_degree,
    is_regular_sequence,
    sample_system,
    sample_Z_system,
    verify_main_theorem,
)
from .io import (
    ExperimentRecord,
    SystemDoc,
    parse_polynomial,
    parse_system,
    parse_system_doc,
    read_csv,
    run_experiment,
    serialize_system_doc,
    summarize,
    system_doc,
    write_csv,
)
from . import errors

# every public name imported above, except the submodules that come with
# them; errors is imported on purpose
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["errors"]
__version__ = "0.1.0"
