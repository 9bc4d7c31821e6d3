"""Active-subspace analysis of parameterized airfoil shapes.

Decode airfoil parameter vectors into surface geometry, sample their
design boxes, fit a global quadratic model to any scalar quantity of
interest, and read dominant directions out of the gradient outer
product -- with bootstrap spread, shadow plots, link functions, and a
two-objective Pareto front on top.

Importing the package defaults ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to ``1`` before numpy loads: the BLAS/LAPACK calls
here are small dense products and solves that gain nothing from a second
thread, whose pool would busy-wait after each of them.  A value already in
the environment wins.  A process that imported numpy before this package
keeps the thread pool it started with.

Importing the package loads no numpy.  Each public name in ``__all__`` is
imported from its submodule on first use (PEP 562), so ``activefoil
--version`` and ``--help`` answer without the numerical stack.
"""

import os
from importlib import import_module

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

# Each public name, listed under the submodule it is imported from.
_EXPORTS = {
    "activesubspace": "BootstrapSummary Eigenpairs QuadraticModel bootstrap "
                      "choose_dimension coefficient_count eigendecompose fit_quadratic "
                      "gradient_outer_matrix quadratic_features subspace_distance",
    "analysis": "ParetoSegment cube_minimum fit_link_function "
                "inactive_sensitivity_check pareto_front pareto_segment shadow_project",
    "cst": "class_function cst_surface",
    "geometry": "BasisKind BasisSpec eval_shape eval_shape_t shape_derivative "
                "shape_derivative_t validate_airfoil",
    "parsec": "solve_coefficients",
    "qoi": "PanelSurrogate QoiEvaluator Ridge SyntheticQuadratic camber_lift "
           "evaluate_batch seeded_quadratic thickness_drag",
    "sampling": "ParameterBox SampleSet denormalize derive_seed make_box sample unit_box",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
