"""merokit: construction and numeric verification of operator-defined
classes of meromorphically multivalent functions.

The package provides truncated Laurent series arithmetic, a diagonal
differential operator acting on coefficient sequences, membership tests
for the associated function classes (exact, sufficient, sampled and disk
forms), certified generators for class members, inequality verifiers
(coefficient, distortion, convolution, partial-sum ratio bounds), and
weighted coefficient neighborhoods.  Every check returns a Report with a
verdict, its worst margin and a witness.
"""
import types as _types

from .bounds import (
    RATIO_RADIUS_CAP,
    TailPolicy,
    coeff_bound_general,
    coeff_bound_plus,
    coeff_bounds_report,
    conv_derivative_kernel,
    conv_identity_kernel,
    convolution_nonvanishing,
    distortion,
    distortion_report,
    partial_sum,
    partial_sum_bounds,
    phi_growth_degree,
)
from .generators import (
    MeasureAtoms,
    SchwarzPoly,
    extremal_fn,
    from_herglotz,
    from_schwarz,
    neighborhood_witnesses,
    ratio_extremal,
)
from .membership import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    Report,
    budget,
    criterion_weight,
    disk_characterization,
    disk_parameters,
    exact_membership_plus,
    numeric_membership,
    ratio_weights,
    subordination_power_target,
    sufficient_condition,
)
from .neighborhoods import (
    WeightSeq,
    delta_star,
    distance,
    in_neighborhood,
    verify_inclusion_general,
    verify_inclusion_plus,
    weight,
    weight_array,
)
from .operator import (
    OperatorParams,
    apply_coeff,
    apply_differential,
    integral_operator,
    invert,
    kernel_h,
    phi,
    phi_array,
)
from .series import (
    DEFAULT_COEFF_COUNT,
    LaurentSeries,
    SampleGrid,
    add,
    default_grid,
    default_trunc_order,
    derivative,
    eval_at,
    eval_circles,
    eval_many,
    hadamard,
    scale,
    z_derivative,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


#: the public names are the ones imported above
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
] + ["__version__"]
