"""Moment dynamics and nonclassicality witnesses for a driven cavity
coupled to two atomic ensembles, with an independent truncated-Fock
master-equation oracle.

The oracle needs scipy and is not imported here: reach it as
``cavens.oracle`` (``from cavens.oracle import FockBasisSpec, closure_report``).
"""

from .model import (
    Configuration,
    Moment,
    MomentState,
    Scenario,
    SystemParams,
    conjugate_mismatch,
    initial_state,
    occupation_defect,
    preset_params,
    validate_params,
)
from .dynamics import (
    IntegrationError,
    NoSteadyStateError,
    Trajectory,
    integrate,
    integrate_batch,
    steady_state_first_moments,
)
from .witnesses import WITNESS_NAMES, InternalConsistencyError, witness_table
from .runner import SignMatrix, SweepSurface, WitnessSeries, chi_sweep, run_scenario, table_matrix
from .io_cli import ConfigError, parse_config

__version__ = "0.1.0"
