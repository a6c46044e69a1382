"""rwalk: spectral analysis, exponential tilting and recurrence
certification for random walks on discrete groups."""

__version__ = "0.1.0"

from .errors import (DegenerateSupport, ExponentOverflow, GroupMismatch,
                     HorizonTooLarge, IndexOutOfRange, InsufficientData,
                     NotIrreducible, NotNormalized, RwalkError, SpecFileError,
                     WindowExceeded)
from .groups import FiniteGroup, Group, Lattice, cyclic_group
from .laws import Law, check_irreducible, default_window
from .recurrence import (HarrisResult, HittingTable, RecurrenceReport,
                         ReturnSeries, Verdict, build_recurrence_report,
                         check_translation_invariance, estimate_rho,
                         hitting_dp, r_recurrence_test, return_series,
                         simulate_harris)
from .specfile import (WalkOptions, WalkSpec, format_walk_spec,
                       parse_element_set, parse_walk_spec)
from .spectral import (Exponential, SpectralResult, check_dual_spectral_radius,
                       find_exponential, verify_r_invariance)
from .tables import FunctionTable, LatticeBox
from .tilting import (SymmetricDegeneracy, TiltedWalk, check_dual_invariance,
                      check_measure_invariance, check_symmetric_degeneracy,
                      check_tilted_powers, tilt)
