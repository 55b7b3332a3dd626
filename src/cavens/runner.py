"""Scenario orchestration: witness time series, sign matrices, drive sweeps.

The sign matrix scores, for every configuration and drive strength, whether
each witness dips below its classical boundary anywhere on the sampled time
grid (excluding tau = 0).  A dip only counts when it clears the scenario
threshold, which separates genuine features from integrator noise; every
cell keeps its evidence (the attained minimum and the time it occurred).

``table_matrix`` and ``chi_sweep`` integrate all scenarios of one call in
lockstep (``dynamics.integrate_batch``): each keeps its own step control
and gets the same bits as when run alone.  Their witnesses are evaluated
as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Trajectory, integrate, integrate_batch
from .model import SAMPLE_CAP, Configuration, Scenario, SystemParams, preset_params
from .witnesses import (
    MODE_KEYS,
    ORDERED_PAIR_KEYS,
    PAIR_KEYS,
    PARTITION_KEYS,
    WITNESS_NAMES,
    InternalConsistencyError,
    column_name,
    witness_table,
)

__all__ = [
    "WitnessSeries",
    "SignMatrix",
    "SweepSurface",
    "SIGN_ROWS",
    "CELLS",
    "run_scenario",
    "table_matrix",
    "chi_sweep",
]


@dataclass(frozen=True)
class WitnessSeries:
    """Every witness on a time grid: ``table[i, j]`` is ``WITNESS_NAMES[j]`` at ``taus[i]``."""

    taus: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        if self.table.shape != (len(self.taus), len(WITNESS_NAMES)):
            raise ValueError("witness table does not match the time grid")
        self.table.flags.writeable = False

    def __len__(self) -> int:
        return len(self.taus)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.table[:, WITNESS_NAMES.index(name)]
        except ValueError:
            raise KeyError(f"unknown witness column {name!r}") from None


def run_scenario(scenario: Scenario) -> tuple[Trajectory, WitnessSeries]:
    """Integrate the moment system and evaluate every witness at every sample."""
    traj = integrate(scenario)
    return traj, WitnessSeries(traj.taus, witness_table(traj.states))


def _witness_tables(scenarios) -> list:
    """Integrate ``scenarios`` in lockstep and evaluate every witness of each.

    Entry ``i`` is scenario ``i``'s ``(n, 42)`` witness table, or the
    ``IntegrationError`` or ``InternalConsistencyError`` it failed on.  The
    integrated scenarios are evaluated as one stack, which gives every
    scenario its own table or error even when some fail.  More than
    ``SAMPLE_CAP`` samples in all raise ``ValueError`` before any integration.
    """
    if sum(sc.sample_count for sc in scenarios) > SAMPLE_CAP:
        raise ValueError(f"sample_count must be <= {SAMPLE_CAP // len(scenarios)} for {len(scenarios)} scenarios")
    results = integrate_batch(scenarios)
    integrated = [i for i, result in enumerate(results) if isinstance(result, Trajectory)]
    if not integrated:
        return results
    try:
        tables = witness_table(np.stack([results[i].states for i in integrated]))
    except InternalConsistencyError as exc:
        tables = exc.members
    for i, table in zip(integrated, tables):
        results[i] = table
    return results


# (row name, cell keys, classical boundary, witness columns scored per key);
# where two columns are named, the smaller of the two is scored
SIGN_ROWS = (
    ("mandel", MODE_KEYS, 0.0, ("mandel",)),
    ("squeeze", MODE_KEYS, 0.25, ("var_x", "var_y")),
    ("squeeze_pair", PAIR_KEYS, 0.25, ("var_x", "var_y")),
    ("hz_e", PAIR_KEYS, 0.0, ("hz_e",)),
    ("hz_etilde", PAIR_KEYS, 0.0, ("hz_etilde",)),
    ("duan", PAIR_KEYS, 0.0, ("duan",)),
    ("bisep_e", PARTITION_KEYS, 0.0, ("bisep_e",)),
    ("bisep_eprime", PARTITION_KEYS, 0.0, ("bisep_eprime",)),
    ("antibunch", MODE_KEYS, 0.0, ("antibunch",)),
    ("antibunch_pair", PAIR_KEYS, 0.0, ("antibunch",)),
    ("steering", ORDERED_PAIR_KEYS, 0.0, ("steering",)),
)

CELLS = tuple((row, key) for row, keys, _, _ in SIGN_ROWS for key in keys)
_BOUNDARIES = np.array([b for _, keys, b, _ in SIGN_ROWS for _ in keys])
# table columns of each cell's first and last scored witness
_FIRST, _LAST = np.array([
    [WITNESS_NAMES.index(column_name(col, key)) for col in (cols[0], cols[-1])]
    for _, keys, _, cols in SIGN_ROWS for key in keys
]).T


@dataclass(frozen=True)
class SignMatrix:
    """Every sign cell of every (configuration, chi) column, with its evidence.

    ``ticks[i, j]``, ``min_value[i, j]`` and ``argmin_tau[i, j]`` belong to
    cell ``CELLS[j]`` (a (row, key) pair) of column ``columns[i]`` (a
    (configuration name, chi) pair); all three arrays have shape
    ``(len(columns), len(CELLS))``.
    """

    threshold: float
    t_max: float
    columns: tuple
    ticks: np.ndarray
    min_value: np.ndarray
    argmin_tau: np.ndarray

    def tick(self, config: str, chi: float, row: str, cell: str) -> bool:
        for i, (c, x) in enumerate(self.columns):
            if c == config and (row, cell) in CELLS and math.isclose(x, chi, abs_tol=1e-12):
                return bool(self.ticks[i, CELLS.index((row, cell))])
        raise KeyError(f"no cell ({config}, {chi}, {row}, {cell})")


def _score(taus, tables, threshold):
    """Minimum over tau > 0 of every sign cell, where it occurs, and the ticks.

    ``tables`` is a ``(columns, n, 42)`` stack of witness tables; each result
    has shape ``(columns, 36)``.  NaN samples are skipped and ties go to the
    earliest tau; a cell without a finite sample never ticks and reports NaN
    evidence.
    """
    first, last = tables[:, 1:, _FIRST], tables[:, 1:, _LAST]
    vals = np.where(last < first, last, first)
    finite = np.isfinite(vals)
    i = np.argmin(np.where(finite, vals, np.inf), axis=1)
    scored = finite.any(axis=1)
    vmin = np.where(scored, np.take_along_axis(vals, i[:, None], axis=1)[:, 0], np.nan)
    argmin = np.where(scored, taus[1:][i], np.nan)
    return vmin < _BOUNDARIES - threshold, vmin, argmin


def table_matrix(base: Scenario = Scenario(SystemParams()), chis=(0.0, 0.2)) -> SignMatrix:
    """Sign matrix over all four configurations and the given drive strengths.

    Every (configuration, chi) column runs ``base`` with that preset's
    parameters; ``base`` supplies the initial state, time grid and threshold.
    All columns are integrated in lockstep and scored as one stack.  The
    first column that fails raises its ``IntegrationError`` or
    ``InternalConsistencyError``.  An empty ``chis`` raises ``ValueError``.
    """
    chis = tuple(chis)  # read once: a one-shot iterator serves every configuration
    columns = tuple((config.name, chi) for config in Configuration for chi in chis)
    if not columns:
        raise ValueError("chi grid must be non-empty")
    tables = _witness_tables([replace(base, params=preset_params(config, chi))
                              for config, chi in columns])
    for table in tables:
        if isinstance(table, Exception):
            raise table
    ticks, min_value, argmin_tau = _score(base.taus, np.stack(tables), base.threshold)
    return SignMatrix(base.threshold, base.t_max, columns, ticks, min_value, argmin_tau)


@dataclass(frozen=True)
class SweepSurface:
    """One witness on a (chi, tau) grid; rows are independent scenario runs."""

    witness: str
    chis: np.ndarray
    taus: np.ndarray
    values: np.ndarray   # shape (len(chis), len(taus))
    status: tuple        # "ok" or the per-row failure message


def chi_sweep(base: Scenario, chis, witness: str) -> SweepSurface:
    """Run ``base`` once per drive strength and collect one witness column.

    Every row is built (and so validated) before any is integrated; then all
    rows are integrated in lockstep.  A row that fails, on its own
    ``IntegrationError`` or ``InternalConsistencyError``, is retained as NaN
    with its status message; the other rows are unaffected.
    """
    chis = np.asarray(list(chis), dtype=float)
    if chis.size == 0:
        raise ValueError("chi grid must be non-empty")
    if witness not in WITNESS_NAMES:
        raise KeyError(f"unknown witness column {witness!r}")
    scenarios = [base.with_params(chi=float(chi)) for chi in chis]
    taus = base.taus
    values = np.full((chis.size, taus.size), np.nan)
    column = WITNESS_NAMES.index(witness)
    status = []
    for i, table in enumerate(_witness_tables(scenarios)):
        if isinstance(table, Exception):  # numeric failure: the row stays NaN
            status.append(f"error: {table}")
        else:
            values[i] = table[:, column]
            status.append("ok")
    return SweepSurface(
        witness=witness,
        chis=chis,
        taus=taus,
        values=values,
        status=tuple(status),
    )
