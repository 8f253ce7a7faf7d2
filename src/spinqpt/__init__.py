"""Exact diagonalization of small spin-1/2 models with pairwise
entanglement tracking and quantum-phase-transition classification."""

__version__ = "0.1.0"

from .lattice import (LatticeSpec, SectorBasis, chain, ladder,
                      enumerate_sector, index_of, lift_to_full)
from .models import (ModelSpec, HamiltonianAction, ResourceLimitError,
                     apply_hamiltonian, general_xyz, hamiltonian_dense, j1j2,
                     ladder_model, transverse_ising, xxz)
from .eigensolver import (ConvergenceError, EigenSolution, dense_spectrum,
                          lanczos_lowest_k)
from .observables import (StateLabels, SumRuleReport, RearrangedSumRule,
                          TransitionWeights, bond_averaged_correlators,
                          collective_apply, correlator, label_state, parity,
                          rearranged_sum_rule, structure_factor,
                          sum_rule_residual, total_spin, transition_weights,
                          two_site_rdm)
from .entanglement import (ConcurrenceValue, ising_closed_form, spin_flip,
                           wootters_concurrence, xxz_closed_form)
from .analysis import (CrossingEvent, Extremum, GridSpec, ScalingResult,
                       SolverOptions, SweepResult, TransitionReport,
                       build_model, classify, derivative, detect_crossings,
                       fit_inverse_size, locate_extrema, scaling_study, sweep)
