"""Numerical workbench for radial harmonic analysis on noncompact harmonic spaces."""

from .asymptotics import (
    GrowthReport,
    Verdict,
    cheeger_chain_report,
    lambda0_estimate,
    volume_growth,
)
from .density import (
    DensityModel,
    DensityError,
    builtin_models,
    make_custom,
    make_damek_ricci,
    make_euclidean,
    make_real_hyperbolic,
    unit_sphere_volume,
)
from .geometry import (
    ExplicitSpace,
    bump_patch,
    displacement_identity_check,
    idempotence_check,
    make_hyperbolic_plane,
    make_plane,
    projector_convolution_check,
    projector_selfadjoint_check,
    space_by_tag,
)
from .grids import Grid1D, make_grid
from .pde import (
    BoundaryLeakError,
    HeatState,
    WaveState,
    heat_identity_check,
    intertwine_check,
    kg_kernel,
    kg_solve,
    radial_heat_solve,
    radial_wave_solve,
    support_growth_slope,
    wave_to_kg_check,
)
from .profiles import (
    RadialProfile,
    annulus_bump,
    gauss_bump,
    smooth_bump,
    standard_suite,
)
from .spherical import (
    SeriesCoefficients,
    SphericalFunction,
    eigen_profile,
    eigen_state_at,
    phi,
    phi_ode_values,
    phi_series,
    spectral_shift,
    volterra_coefficients,
)
from .transforms import (
    AccuracyError,
    EvenFunction,
    SpectralSamples,
    abel,
    abel_inverse,
    cosine_transform,
    gauss_line,
    line_convolve,
    plane_integral_r3,
    radial_convolve,
    spherical_fourier,
)
from .two_radius import (
    LZero,
    RadiusCertificate,
    WindingError,
    ZeroSet,
    bad_radii,
    boundary_winding,
    certify_pair,
    find_L_zeros,
    find_r_zeros,
    mvp_counterexample_demo,
)

__version__ = "0.1.0"
