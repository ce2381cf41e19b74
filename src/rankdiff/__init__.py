"""Planar diffusion with rank-based coefficients.

Simulation (Euler schemes for every driving system and exact terminal
sampling), closed-form time-t laws with their singular components, algebraic
strong/weak solvability classification of diffusion-matrix square roots, and
time reversal of the gap process.
"""

from .core import (InitialState, ModelParams, ParameterError, SeedSpec, sign,
                   validate_params)
from .bangbang import (YPath, atom_density, atom_mass, euler_gap_path, invariant_density,
                       occupation_local_time, sample_triples, transition_density,
                       triple_density)
from .planar import (NoiseBundle, PlanarPath, TerminalSample, euler_simulate,
                     euler_terminal_batch, exact_sample_terminal, gap_path_of,
                     noise_bundle, rank_residuals, ranks, skew_construct)
from .densities import (AtomLine, DensityGrid, atom_line_density, density_grid,
                        front_jump, joint_density_degenerate,
                        joint_density_isotropic, planar_atom, planar_density,
                        psi_density, quadrivariate_atom_density,
                        quadrivariate_density, rank_density_degenerate)
from .classifier import (SqrtConfig, StrengthVerdict, build_config,
                         enumerate_diagonal_roots, strength)
from .timereversal import (BackwardDriftSpec, backward_drift,
                           backward_rank_drift_report, q_function,
                           simulate_backward)
from .harness import (ExperimentConfig, GofReport, PiecewiseBV,
                      tanaka_coalescence_experiment)
from .svgplot import emit_svg_heatmap
from .validation import run_validation_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
