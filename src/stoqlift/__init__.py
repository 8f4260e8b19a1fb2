"""stoqlift: lift finite-state stochastic kernels to quantum channels.

The package follows one set of conventions everywhere: transition matrices
are column-stochastic and act on probability column vectors from the left;
operator vectorization is column-stacking; tensor products put the system
index first (slow-varying).

``import stoqlift`` loads only ``errors``. Every other public name is
resolved on use (PEP 562): its module is imported the first time, and the
name is read from that module each time, so a patch of the module's name
(and its undoing) shows through the package.
"""

from importlib import import_module as _import_module

from .errors import DimensionMismatchError, ValidationError

#: The public names of each module, which the package resolves on use.
_EXPORTS = {
    "kernels": ("CDivisibilityResult", "CkFamilyReport", "KernelFamily",
                "KernelValidationReport", "ProbabilityVector", "RateMatrix",
                "ScalingRow", "ShortTimeReport", "StochasticKernel",
                "TrivialityRow", "c_divisibility_check", "check_ck_family",
                "compose", "ctmc_propagate", "dtmc_to_ctmc_scaling",
                "short_time_derivatives", "theta_markov_triviality_demo",
                "validate_kernel"),
    "lifts": ("ChoiMatrix", "CompatibilityReport", "CptpReport",
              "DensityOperator", "InducedKernelReport", "KrausMap",
              "LeftRightMap", "QDivisibilityResult", "SuperOperator",
              "ThetaConjugationReport", "apply_kraus", "barandes_column_lift",
              "canonical_lift", "check_cptp", "choi_from_kraus",
              "choi_from_superoperator", "compatibility_check", "dephase",
              "dephasing_projector", "diagonal_injection", "dictionary_kernel",
              "embed_diagonal", "induced_kernel", "kraus_from_choi",
              "q_divisibility_check", "readout", "superop_kernel_extract",
              "theta_conjugation_lift", "to_superoperator", "unvec", "vec"),
    "dynamics": ("CkChecklistReport", "GkslGenerator", "SuperOperatorFamily",
                 "ck_checklist", "ctmc_embedding",
                 "diagonal_preservation_check", "generator_from_family",
                 "gksl_superoperator", "propagate", "propagate_piecewise",
                 "short_time_kraus"),
    "memory": ("PovmEffects", "ThreeTimeFreedomReport", "dof_counts",
               "measurement_operators", "mod_square",
               "modified_readout_kernel", "one_step_indistinguishable",
               "povm_from_channel", "three_time_freedom",
               "two_step_difference", "two_step_kernel"),
    "division": ("DivisionVerdict", "EnvironmentScenarioReport",
                 "environment_division_scenario", "partial_trace",
                 "tensor_superoperator", "theorem1_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DimensionMismatchError", "ValidationError", "errors", *_EXPORTS,
           *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _HOME[name]
    return getattr(globals().get(module) or __getattr__(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
