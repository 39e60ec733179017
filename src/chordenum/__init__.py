"""Exact enumeration of loopless and simple chord diagrams."""

from .diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    Diagram,
    act,
    canonical_code,
    classify,
    enumerate_matchings,
    format_diagram,
    parse_diagram,
    sectored,
)
from .labelled import (
    SequenceTable,
    TriangleTable,
    loop_parallel_triangle,
    loop_triangle,
    loopless_chord,
    loopless_linear,
    parallel_triangle,
    simple_chain,
    simple_chord,
    simple_linear,
)
from .reflection import loopless_dihedral, simple_dihedral
from .series import MarkerTriangle, ScaledSeries, TruncatedSeries, integer_coeffs, named_series
from .symmetry import (
    loopless_cyclic,
    loopless_rotation_fixed,
    simple_cyclic,
    simple_rotation_fixed,
)

__version__ = "0.1.0"
