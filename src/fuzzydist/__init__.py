"""Spectral distances on fuzzy spheres in the operator (Hilbert-Schmidt) picture.

Submodules:

* halfint: exact half-integer arithmetic for spin labels
* linalg: thin checked wrappers over the dense numpy kernels
* sphere: matrix coordinates, pure states, the two-mode oscillator picture
* triple: Dirac operators and the Lipschitz seminorm
* distance: closed forms, the norm pipeline, the constrained-ascent optimizer
* coherent: coherent states as SU(2) rotations of |n,n>, the infinitesimal metric
* quantum: operator-space pure/mixed/thermal distances; every quantum state is
  diagonal in |n3, l3) and held as its (2n+1) x (2n+1) weight matrix
* continuum: commutative checks (Hopf map, round metric, monopole charts)
* validate: the named-check registry behind `fuzzydist validate`
* cli: command-line front end

Submodules load lazily: importing the bare package pulls no numpy, so the
CLI can translate FUZZYDIST_THREADS into BLAS thread caps first.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("halfint", "linalg", "sphere", "triple", "distance", "coherent",
               "quantum", "continuum", "validate", "cli")

_EXPORTS = {
    "HalfInteger": "halfint",
    "casimir_fraction": "halfint",
    "ladder_radicand": "halfint",
    "LinalgDomainError": "linalg",
    "operator_norm": "linalg",
    "trace_norm": "linalg",
    "frobenius_norm": "linalg",
    "hermitian_eigvals": "linalg",
    "SphereDomainError": "sphere",
    "FuzzySphere": "sphere",
    "build_space": "sphere",
    "HSOperator": "sphere",
    "pure_state": "sphere",
    "adjacent_drho": "sphere",
    "FockMonomial": "sphere",
    "winding_number": "sphere",
    "TwoModeFock": "sphere",
    "k_adjoint_action": "sphere",
    "jordan_schwinger_check": "sphere",
    "UnsupportedFeatureError": "triple",
    "SpectralTriple": "triple",
    "build_dirac": "triple",
    "dirac_commutator": "triple",
    "lipschitz_seminorm": "triple",
    "dirac_eigenvalue_pattern": "triple",
    "OptimizerError": "distance",
    "DistanceResult": "distance",
    "adjacent_distance_closed_form": "distance",
    "distance_lower_bound": "distance",
    "connes_distance_optimized": "distance",
    "quantized_polar_angle": "distance",
    "arc_length_step": "distance",
    "CoherentState": "coherent",
    "coherent_state": "coherent",
    "coherent_drho": "coherent",
    "coherent_metric_coefficient": "coherent",
    "ladder_commutator_norm": "coherent",
    "coherent_distance_numeric": "coherent",
    "coherent_distance_fd": "coherent",
    "coherent_route_report": "coherent",
    "richardson_distance_coefficient": "coherent",
    "resolution_of_identity_residual": "coherent",
    "large_n_scaling_deviation": "coherent",
    "MinimizationError": "quantum",
    "same_sector_seminorm": "quantum",
    "distinct_sector_seminorm_literal": "quantum",
    "distinct_sector_seminorm_symmetrized": "quantum",
    "quantum_pure_distance": "quantum",
    "quantum_pure_distance_symmetrized": "quantum",
    "quantum_seminorm_oracle": "quantum",
    "distinct_branch_report": "quantum",
    "ProbabilityProfile": "quantum",
    "trace_norm_distance": "quantum",
    "mixed_commutator_norms": "quantum",
    "mixed_distance_oracle": "quantum",
    "MinimizationCertificate": "quantum",
    "delta_matrix": "quantum",
    "path_distance": "quantum",
    "minimize_path_distance": "quantum",
    "uniform_minimized_distance": "quantum",
    "EnergySpectrum": "quantum",
    "partition_function": "quantum",
    "thermal_profile": "quantum",
    "thermal_prefactor": "quantum",
    "thermal_distance": "quantum",
    "GeometryDomainError": "continuum",
    "EulerPoint": "continuum",
    "euler_to_spinor": "continuum",
    "hopf_projection": "continuum",
    "hopf_deviation": "continuum",
    "spinor_convention_report": "continuum",
    "s3_metric": "continuum",
    "s3_metric_fd": "continuum",
    "killing_fields": "continuum",
    "killing_orthonormality_deviation": "continuum",
    "clifford_sigmas": "continuum",
    "clifford_algebra_deviations": "continuum",
    "monopole_connection": "continuum",
    "monopole_section_residual": "continuum",
    "tautological_connection": "continuum",
    "doubled_connection_form": "continuum",
    "connection_mismatch_report": "continuum",
    "CheckResult": "validate",
    "run_checks": "validate",
    "check_names": "validate",
}

__all__ = ["__version__"] + list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        mod = import_module("." + name, __name__)
        globals()[name] = mod
        return mod
    if name in _EXPORTS:
        mod = import_module("." + _EXPORTS[name], __name__)
        value = getattr(mod, name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
