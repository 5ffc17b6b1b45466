"""Top-q ordered minibatch optimization.

Minibatch SGD/Adam variants that update on only the q largest-loss
samples of each batch, the exact rank-selection weights describing the
objective they minimize, enumeration oracles certifying the estimator's
unbiasedness, and a seeded experiment harness for desk-scale comparisons.
"""
from .analysis import (ConvergenceError, concentration_term, moreau_grad_norm,
                       optimality_gap, reference_optimum, relative_improvement,
                       zero_one_error)
from .coeffs import (GammaCurve, GammaWeights, beta_cdf, gamma_asymptotic,
                     gamma_rescaled_curve, gamma_weights, gamma_weights_float)
from .config import (DataConfig, ModelConfig, OptConfig, RunConfig,
                     build_dataset, build_objective, load_config)
from .data import (Dataset, FormatError, gen_clusters_2d, gen_rings_2d,
                   load_idx, load_semeion, split_dataset)
from .harness import (ExperimentResult, RunRecord, RunResult, run_experiment,
                      run_single, run_verification_suite, sweep_q)
from .objectives import FeedforwardModel, Objective
from .optimizers import (DivergenceError, OptimizerState, ScheduleSpec,
                         adaptive_q_update, init_state, osgd_step, schedule_lr)
from .ordered_loss import (ResourceError, expected_step_bruteforce,
                           lq_subgradient, ordered_empirical_loss,
                           rank_selection_counts)
from .selection import q_argmax, rank_by_loss, sample_minibatch

__version__ = "0.1.0"
