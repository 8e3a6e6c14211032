"""Effective-operator toolkit for oscillating, decaying two-state systems."""

from .core import (
    CpBasisData, MesonParams, Quasispin,
    K0BAR_DIRECTION, KL_DIRECTION, KS_DIRECTION,
    bmeson_defaults, cp_basis_data, hermitian_eigen, kaon_defaults,
    stable_defaults,
)
from .effective import (
    EigenPair, ObservableMatrix, bipartite_expectation, bloch_vector,
    cp_eigenvectors, cp_weights, effective_operator, effective_operator_cp,
    expectation, spectral,
)
from .evolution import (
    DensityMatrix, JointOutcome, evolve_bipartite, evolve_single_closed,
    joint_probabilities, lindblad_integrate, singlet_state, surviving_pair,
)
from .uncertainty import (
    UncertaintyReport, bipartite_mu_bound, bloch_mu_bound, complementary_time,
    cp_overlap_ks, delta_for_equal_times, misid_time, mu_bound, robertson_check,
)
from .bell import (
    BellReport, BellSetting, ChshValue, CpBellReport, bell_bounds,
    bell_operator, chsh_value, cp_bell_test, sample_witness_max, scan_bell,
)

__version__ = "0.1.0"
