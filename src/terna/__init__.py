"""terna: representations of integers by ternary quadratic polynomials.

Library layout:

* ``terna.core``: domain types (one ``DiagonalForm`` whose variables
  lie in congruence classes, every integer by default),
  completing-the-square reduction, witness verification, sign
  normalization.
* ``terna.search``: exhaustive representability search and bit-array
  exceptional-set sieves.
* ``terna.families``: classical exceptional-set formulas with sieve
  cross-checks.
* ``terna.lemmas``: constructive decompositions (descents and
  deterministic searches) feeding the witness pipelines.
* ``terna.witnesses``: witnesses for the proven universal
  triples/quadruples, constructed or searched and checked by the same
  clause identity, the paper's other universal sums as PolySums, plus
  the diagonal-form equivalence bridge.
* ``terna.survey``: coefficient-space filters and range scans.
* ``terna.cli``: the ``terna`` command and form-expression parser.
"""

from .core import (
    CongruenceClass,
    CongruenceViolationError,
    ConstructionError,
    DiagonalForm,
    NoValidSignError,
    NotRepresentableError,
    PolySum,
    PreconditionError,
    ResourceLimitError,
    Term,
    TernaError,
    Witness,
    embed,
    evaluate,
    lift,
    normalize_sign,
    reduce,
    verify,
)
from .families import (
    FAMILIES,
    ExceptionalFamily,
    ProgressionPattern,
    crosscheck,
    member,
)
from .lemmas import (
    NoOddRepresentationError,
    anomalies_x2_2y2,
    check_3x2_6y2,
    five_descent,
    rep_5x2_5y2_z2_odd,
    rep_x2_2y2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
)
from .search import exceptional_set, represent, represent_all
from .survey import (
    filter_universal_quadruples,
    filter_universal_triples,
    reverify_quadruples,
    scan_5x2_5y2_4z2,
    verify_conjectured_triples,
)
from .witnesses import (
    CONJECTURED_TRIPLES,
    PROVEN_QUADRUPLES,
    PROVEN_TRIPLES,
    diagonal_bridge,
    quadruple_poly,
    quadruple_witness,
    recipe,
    triple_poly,
    triple_witness,
)

__version__ = "1.0.0"
