"""Active-subspace analysis of parameterized airfoil shapes.

Decode airfoil parameter vectors into surface geometry, sample their
design boxes, fit a global quadratic model to any scalar quantity of
interest, and read dominant directions out of the gradient outer
product -- with bootstrap spread, shadow plots, link functions, and a
two-objective Pareto-segment study on top.
"""

from .activesubspace import (
    BootstrapSummary,
    ConvergenceCell,
    Eigenpairs,
    QuadraticModel,
    SubspacePartition,
    bootstrap,
    choose_dimension,
    coefficient_count,
    convergence_study,
    eigendecompose,
    fit_quadratic,
    gradient_outer_matrix,
    partition,
    quadratic_features,
    subspace_distance,
)
from .analysis import (
    ParetoSegment,
    ResponseSurface,
    ShadowData,
    cube_minimum,
    fit_link_function,
    inactive_sensitivity_check,
    pareto_front,
    pareto_segment,
    shadow_project,
)
from .cst import CstParams, class_function, cst_surface, expand_odd_polynomial
from .geometry import (
    AirfoilSurfacePair,
    BasisKind,
    BasisSpec,
    FitResult,
    ShapeCoefficients,
    Surface,
    ValidityReport,
    eval_shape,
    eval_shape_t,
    fit_coefficients,
    shape_derivative,
    shape_derivative_t,
    validate_airfoil,
)
from .parsec import ConstraintSystem, ParsecParams, build_constraint_system, solve_coefficients
from .qoi import (
    DatasetQoi,
    PanelSurrogate,
    QoiEvaluator,
    Ridge,
    SyntheticQuadratic,
    camber_lift,
    evaluate_batch,
    load_dataset,
    seeded_quadratic,
    thickness_drag,
)
from .sampling import (
    ParameterBox,
    SampleSet,
    denormalize,
    derive_seed,
    make_box,
    normalize,
    sample,
    unit_box,
)

__version__ = "0.1.0"
