"""Bruhat order intervals in Coxeter groups, finite poset machinery, and
combinatorial prime-spectrum pipelines matched against Bruhat intervals."""

from .coxeter import (CoxeterMatrix, GroupElement, CoxeterError,
                      builtin_matrix, matrix_by_name, element_from_word,
                      identity_element, right_descent, left_descent,
                      elements_up_to_length, INF)
from .bruhat import (BruhatError, BruhatInterval, BruhatPartition,
                     bruhat_leq, interval, partition, check_lifting,
                     word_label)
from .poset import (LabeledPoset, PosetMap, PosetError, build, product,
                    disjoint_union, two_chain, singleton, induced,
                    is_upper_set, find_isomorphism, export, pushout_square)
from .extension import (ExtensionError, SpectrumPartition, SetupData,
                        validate_setup, ore_step, extend_iso,
                        commuting_square)
from .spectra import (SpectraError, SpectraInputError, in_ideal, classify,
                      load_pipeline, run_pipeline, builtin, height, label_of)

__version__ = "0.1.0"
