"""The result and spec records: immutable, with the same fields in the same
order, and importing the CLI generates no dataclass code."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rwalk import laws, recurrence, specfile, spectral, tilting

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = [
    (laws.IrreducibilityResult, ("irreducible", "witness", "degenerate")),
    (spectral.SpectralResult,
     ("theta", "rho", "R", "gradient_norm", "iterations", "irreducibility")),
    (spectral.DualSpectralResult, ("rho", "rho_dual", "theta", "theta_dual")),
    (tilting.TiltedWalk, ("original", "exponential", "R", "tilted")),
    (tilting.SymmetricDegeneracy,
     ("is_symmetric", "r_equals_one", "phi_trivial", "theta_norm", "r_diff")),
    (recurrence.ReturnSeries, ("probabilities", "period", "horizon", "max_mass_error")),
    (recurrence.RhoEstimate, ("rho_hat", "method")),
    (recurrence.RecurrenceVerdict, ("partial_sums", "growth_ratio", "verdict",
                                    "recurrent_threshold", "transient_threshold")),
    (recurrence.HarrisResult, ("return_fraction", "ci_halfwidth", "trajectories",
                               "horizon", "seed", "mean_displacement",
                               "displacement_sem")),
    (recurrence.HittingTable, ("targets", "horizon", "window", "layers")),
    (recurrence.RecurrenceReport, ("rho_series", "rho_method", "rho_spectral",
                                   "partial_sum_checkpoints", "warnings", "series",
                                   "test", "verdict_theorem")),
    (specfile.WalkOptions, ("window_radius", "horizon", "trajectories", "seed",
                            "growth_recurrent", "growth_transient")),
    (specfile.WalkSpec, ("group", "law", "options")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_keeps_its_fields_and_refuses_assignment(cls, fields):
    assert tuple(inspect.signature(cls).parameters) == fields
    record = cls(*[None] * len(fields))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)


def test_record_defaults():
    assert specfile.WalkSpec(None, None).options == specfile.WalkOptions()
    assert all(v is None for v in specfile.WalkOptions())
    degeneracy = tilting.SymmetricDegeneracy(False, None, None)
    assert (degeneracy.theta_norm, degeneracy.r_diff) == (None, None)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import sys, rwalk.cli; assert 'dataclasses' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
