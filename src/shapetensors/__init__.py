"""Separable tensors for discrete planar shapes.

An ordered landmark polygon factors into an affine part (scale,
rotation, shear, placement) and an undulation part: a point on the
Grassmannian of 2-planes.  This package provides the standardization,
the Riemannian geometry of both factors (exponential and logarithm
maps, distances, parallel transport), ensemble statistics (Karcher
means, principal geodesic analysis), generative sampling, spanwise
blade interpolation with consistent deformation, a CST airfoil
generator, and a command-line pipeline tying them together.
"""

from .blade import (
    BladeModel,
    build_blade,
    cluster_representatives,
    consistent_deform,
    evaluate_blade,
    evaluate_representative,
    procrustes_rotation,
)
from .bladeio import (
    BladeDefinition,
    build_blade_from_definition,
    load_blade,
    read_blade_definition,
    save_blade,
    wireframe_sections,
    write_obj,
    write_wireframe,
)
from .convergence import (
    ConvergenceReport,
    run_convergence,
    write_convergence_csv,
    write_convergence_svg,
)
from .cst import (
    bernstein_shape,
    cst_airfoil,
    cst_airfoils,
    generate_airfoils,
    is_valid_airfoil,
    perturb_coefficients,
    random_coefficients,
    read_coefficients,
)
from .errors import (
    ContractError,
    ConvergenceError,
    DegenerateGeometryError,
    ExtrapolationError,
    NormalNeighborhoodError,
    ShapeTensorError,
)
from .grassmann import (
    GrassmannPoint,
    GrassmannTangent,
    gr_distance,
    gr_exp,
    gr_log,
    gr_transport,
    principal_angles,
)
from .intersect import self_intersects
from .model_io import load_model, save_model
from .product import ProductPoint
from .shapes import (
    AffineFactor,
    LandmarkShape,
    PreprocessConfig,
    SeparableShape,
    cumulative_lengths,
    l4_matrix,
    la_standardize,
    landmark_gauge,
    read_landmarks,
    reconstruct,
    refine,
    write_landmarks,
)
from .spd import (
    SpdMatrix,
    SpdTangent,
    spd_distance,
    spd_exp,
    spd_log,
    spd_transport,
)
from .stats import (
    MeanScale,
    PgaModel,
    SampleDomain,
    embed,
    generate,
    karcher_mean,
    mean_scale,
    pga_fit,
    sample_domain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
