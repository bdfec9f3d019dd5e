"""MaxCut solvers that exploit noisy or partial predictions of an optimal cut."""

from .errors import (ContractViolationError, DimensionError, DomainError,
                     ParameterError, ParseError, PredcutError)
from .graph import (CutAssignment, Graph, WideNarrowReport, best_cut, classify,
                    cut_value, delta_prefix_weight, frac_objective, gen_erdos_renyi,
                    load_edge_list, save_edge_list, truncated_adjacency)
from .predictions import (NoisyPrediction, PartialPrediction, bias_grid,
                          load_prediction, sample_noisy, sample_partial,
                          save_prediction, scaled_prediction)
from .lp import AbsSumLp, LpGroup, LpSolution, solve as solve_lp
from .sdp import (SdpConfig, SdpSolution, SubsetLadder, hyperplane_round, load_solution,
                  rt_round, save_solution, sdp_objective, sdp_upper_bound, solve_gw,
                  solve_sdp)
from .exact import exact_csp, exact_maxcut
from .wide import (ImbalanceEstimate, build_wide_lp, estimate_imbalance,
                   pipage_round, randomized_round_best, solve_wide)
from .narrow import FlipReport, fkl_band_width, flip_step, solve_narrow
from .pipeline import choose_delta, solve_noisy
from .partial import (TauGrid, revealed_edge_set, solve_partial_gw,
                      solve_partial_rt)
from .csp import (CspInstance, Predicate, build_csp_lp, classify_literals,
                  csp_value, csp_value_table, fourier_expand, load_csp,
                  maxcut_as_csp, predicate_from_bits, save_csp, solve_csp_wide)

__version__ = "0.1.0"
