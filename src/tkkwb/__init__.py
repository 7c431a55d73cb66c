"""Exact-arithmetic workbench for TKK Lie algebras of graded Jordan algebras,
their universal central extensions, and bounded weight modules."""

from .linalg import LabeledSpace, Matrix, RowSpan, quotient, rref
from .jordan import (JordanAlgebra, InputError, builtin, jmul, jpower,
                     load_algebra, matrix_jordan, spin_factor,
                     special_from_associative, truncated_poly, validate)
from .tkk import (BraceSpace, TKKAlgebra, build_sl2, build_tkk, center_map,
                  half_killing_sl2, short_grading, validate_lie)
from .jspace import (G0Rep, JSpaceRep, LevelError, check_bimodule,
                     check_envelope_relations, check_jspace,
                     dominance_check, dominance_operator, doubled_regular_rep,
                     extend_to_g0, level, load_rep, matrix_defining_rep,
                     newton_rep, regular_rep, tensor_rep, zero_rep)
from .weyl import (ExtensionError, NoncommutingPowersError, TruncatedVerma,
                   WeylTable, WindowError, apply_generator, bracket_fidelity,
                   efr_power, efr_powers, efr_vanishes, garland_coefficient,
                   garland_coefficients, snlt_oracle, weyl_dimensions)
from .symfun import (SymPoly, class_size, dominance_coeffs, mn_character,
                     newton, newton_product, partitions, schur,
                     schur_jacobi_trudi, sign, trace_oracle,
                     verify_frobenius, verify_newton_dependence)

__version__ = "0.1.0"
