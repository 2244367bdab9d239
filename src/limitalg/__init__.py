"""Exact-arithmetic workbench for triangular limit algebras.

Finite stages of TAF/TUHF towers given by embedding words: links and
linkless certificates, Jacobson radical membership, finite abelian
crossed products over cyclotomic scalars, invariant-ideal lattices, and
gauge-invariant ideal parametrization for finite dynamical systems.
"""

from .tower import (Element, MatrixUnit, MatrixUnitSum, TowerSpec,
                    TowerValidationError, embed_element, embed_unit, preset,
                    validate_embedding)
from .links import (CertifiedLinkless, Linked, NotLinkedUpTo, donsig_report,
                    has_link_at, link_status)
from .radical import (ChainCycle, InRadical, NotInRadical, Unknown,
                      donsig_chain, radical_membership, uniform_nilpotency)
from .crossed import (Character, CrossedAlgebra, FiniteAbelianGroup,
                      LevelAction, build_crossed, diag_action, diag_check,
                      enumerate_invariant_ideals, links_lemma_check,
                      perm_action, radical_tightness_check, trivial_action,
                      verify_lattice_iso)
from .dynamics import (TowerAction, technical_index_audit, twisted_link,
                       validate_action)
from .peters import (FiniteDynSys, IdealSequence, SubsetSequence,
                     TruncatedSemicrossed, check_star, enumerate_sequences,
                     extract_bigstar, ideal_from_sequence, sets_to_ideals)
from .parser import parse_tower, parse_tower_file, render_tower

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
