"""MCMC sampling for strongly Rayleigh subset measures and DPPs.

Three lazy chains (add-delete, Gibbs exchange, projection), exact
small-instance verification oracles, and Gelman-Rubin convergence
diagnostics.
"""

from .measures import (CardinalityConditionedMeasure, MeasureOracle,
                       ProductMeasure, SubsetState, SymmetricHomogenization,
                       TableMeasure)
from .dpp import (CholeskyCache, KernelValidationError, LEnsemble,
                  SpectralSampler, dpp_log_weight, l_to_marginal,
                  marginal_to_l, rbf_kernel, spectrum_step_kernel,
                  validate_marginal_kernel)
from .chains import (ChainSpec, MoveOutcome, Transcript, chain_rng,
                     exchange_bound, run_chain, run_chains, step_add_delete,
                     step_exchange, step_projection, theorem_bound)
from .exact import (ExactDistribution, TransitionMatrix,
                    check_log_submodular, detailed_balance_check,
                    enumerate_distribution, exact_marginals,
                    lumped_exchange_matrix, stationarity_check,
                    transition_matrix, tv_mixing_times_all)
from .diagnostics import (empirical_marginals, extract_summary,
                          first_crossing, iterations_to_threshold, psrf,
                          psrf_curve)

__version__ = "0.1.0"
