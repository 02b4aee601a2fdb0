"""Riesz/Cesaro summability and Green-kernel asymptotics for model operators."""

from .errors import (AccuracyError, BoundaryError, DataError, DomainError,
                     ParameterError, SingularityError, UnsupportedOrderError)
from .quadrature import QuadratureResult, integrate
from .testfn import TestFunction, make_bump, make_exp_decay
from .measures import SpectralMeasure, riesz_mean
from .summability import (CesaroReport, FinitePart, cesaro_limit,
                          cesaro_order_test, finite_part_eval, point_value)
from .spectral import (DensityEval, WkbTable, density_free_line,
                       density_free_space, density_smear_interval,
                       evaluate_named_density, free_line_density_measure,
                       interval_measure, interval_minus_free_measure,
                       offdiagonal_equivalence_check, staircase_interval,
                       wkb_coefficients)
from .kernels import (ExpansionCoefficients, KernelEval, averaged_smear,
                      cylinder_kernel, heat_kernel, schrodinger_kernel,
                      small_t_coefficients, wightman_P, wightman_interval)

__version__ = "0.1.0"
