"""Information geometry of positive transition measures on Markov chains."""

from .coordinates import (
    ExpectationPoint,
    in_marginals,
    is_in_M,
    is_in_Mtilde,
    is_positive_transition_measure,
    is_transition_probability,
    mass,
    normalize_to_measure,
    out_marginals,
    scale_point,
    stationarity_gap,
    taubar,
    tbar,
)
from .divergence import (
    StandardConvexFunction,
    bregman_divergence,
    builtin_generators,
    f_divergence,
    get_generator,
    induced_tensor,
    induced_tensor_gram,
    nagaoka_divergence,
    null_space_dimension,
    register_generator,
)
from .graph import ChainGraph, build_graph, format_chain_file, parse_chain_file, strongly_connected
from .inference import (
    Trajectory,
    empirical_pair_measure,
    goodness_of_fit_statistic,
    mle_transition,
    project_to_M,
    sample_trajectory,
)
from .potential import phibar, phibar_gradient, phibar_hessian, phihat, restricted_hessian
from .spectral import EdgeFunction, SpectralData, matrix_of, perron, root_gradient, scale

__version__ = "0.1.0"
