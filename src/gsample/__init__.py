"""Sampling-set design for bandlimited graph signal estimation."""

from .baselines import greedy_sigma_min, top_m_selection
from .design import (
    Criterion,
    DesignWeights,
    SampleAllocation,
    design_pipeline,
    information_matrix,
    criterion_value,
    invertibility_probability_bound,
    min_sample_size,
    solve_relaxed,
)
from .estimation import (
    SamplingSequence,
    blue_estimate,
    reconstruction_error,
    sample_with_noise,
    sequence_from_allocation,
)
from .exceptions import (
    FallbackExhausted,
    GSampleError,
    GraphConnectivityError,
    RankDeficientSampling,
    SingularInformationMatrix,
)
from .graphs import (
    WeightedGraph,
    laplacian,
    load_edge_list,
    random_geometric,
    save_edge_list,
    watts_strogatz,
)
from .spectral import (
    SpectralBasis,
    design_rows,
    eigendecompose,
    gft,
    igft,
    synthesize_bandlimited,
)

__version__ = "0.1.0"
