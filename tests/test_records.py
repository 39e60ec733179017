"""The value semantics of the library's records: equality, hashing, repr, construction, immutability.

Pinned against the records as ``dataclasses`` built them, so a change of
how a record is made keeps what its users see.
"""

from fractions import Fraction

import pytest

from chordenum import labelled, reflection, symmetry
from chordenum.diagram import CIRCULAR, LINEAR, Diagram
from chordenum.labelled import SequenceTable, SimpleChain, TriangleTable
from chordenum.octahedron import HamCycle
from chordenum.oracle import SweepResult
from chordenum.reflection import MirrorTables
from chordenum.series import MarkerTriangle, TruncatedSeries
from chordenum.symmetry import SectorColumn

SEQ = SequenceTable((0, 1, 3))

# class -> (fields by keyword, a record differing in one field, its exact repr)
CASES = {
    Diagram: (
        {"pairing": (1, 0), "topology": LINEAR},
        Diagram((1, 0)),
        "Diagram(pairing=(1, 0), topology='linear')",
    ),
    SequenceTable: ({"values": (0, 1, 3)}, SequenceTable((0, 1, 4)), "SequenceTable(values=(0, 1, 3))"),
    TriangleTable: (
        {"rows": ({(0,): 1}, {(1,): 1})},
        TriangleTable(({(0,): 1},)),
        "TriangleTable(rows=({(0,): 1}, {(1,): 1}))",
    ),
    SimpleChain: (
        {"linear": SEQ, "no_end_chord": SEQ, "chord": SEQ},
        SimpleChain(SEQ, SEQ, SequenceTable(())),
        "SimpleChain(linear=SequenceTable(values=(0, 1, 3)), no_end_chord=SequenceTable(values=(0, 1, 3)),"
        " chord=SequenceTable(values=(0, 1, 3)))",
    ),
    HamCycle: ({"vertices": (1, 2, 4, 3)}, HamCycle((1, 3, 4, 2)), "HamCycle(vertices=(1, 2, 4, 3))"),
    SweepResult: ({"n": 1, "tables": {"circular": {(1, 0): 1}}}, SweepResult(2, {}), "SweepResult(n=1, tables={'circular': {(1, 0): 1}})"),
    MirrorTables: (
        {"rows": [[1], [0, 1]], "end_chord_rows": [[0], [0, 1]]},
        MirrorTables([[1], [0, 1]], [[0], [0, 0]]),
        "MirrorTables(rows=[[1], [0, 1]], end_chord_rows=[[0], [0, 1]])",
    ),
    TruncatedSeries: (
        {"coeffs": (Fraction(1), Fraction(3, 2))},
        TruncatedSeries((Fraction(1),)),
        "TruncatedSeries(coeffs=(Fraction(1, 1), Fraction(3, 2)))",
    ),
    MarkerTriangle: (
        {"order": 1, "cells": {(0, 1, 0): 1}},
        MarkerTriangle(1, {(0, 1, 0): 2}),
        "MarkerTriangle(order=1, cells={(0, 1, 0): 1})",
    ),
    SectorColumn: ({"totals": (1, 0, 2), "rows": None}, SectorColumn((1, 0, 3), None), "SectorColumn(totals=(1, 0, 2), rows=None)"),
}
# records whose fields hold dicts or lists cannot be hashed
UNHASHABLE = {TriangleTable, SweepResult, MirrorTables, MarkerTriangle}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_records_compare_hash_and_print_by_their_fields(cls):
    fields, other, text = CASES[cls]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position and not by_keyword != by_position
    assert by_keyword != other and not by_keyword == other
    assert by_keyword != tuple(fields.values())
    assert by_keyword.__eq__(tuple(fields.values())) is NotImplemented
    assert repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)
        assert {by_keyword: 1}[by_position] == 1


# SweepResult was the one record left mutable; it is frozen now, which its own test pins
@pytest.mark.parametrize("cls", [cls for cls in CASES if cls is not SweepResult], ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = cls(**CASES[cls][0])
    name, value = next(iter(CASES[cls][0].items()))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value


def test_a_sweep_result_refuses_assignment_too():
    sweep = SweepResult(1, {})
    with pytest.raises(AttributeError):
        sweep.n = 2
    assert sweep.n == 1


def test_records_of_different_classes_are_unequal():
    assert SequenceTable((1, 2)) != HamCycle((1, 2))
    assert SequenceTable((1, 2)).__eq__(HamCycle((1, 2))) is NotImplemented


def test_records_refuse_missing_and_unknown_fields():
    with pytest.raises(TypeError):
        SequenceTable()
    with pytest.raises(TypeError):
        SequenceTable((1,), (2,))
    with pytest.raises(TypeError):
        SequenceTable(values=(1,), extra=2)
    with pytest.raises(TypeError):
        SequenceTable((1,), values=(1,))


def test_diagram_defaults_to_circular_and_validates():
    assert Diagram((1, 0)).topology == CIRCULAR
    assert Diagram(pairing=(1, 0)) == Diagram((1, 0), CIRCULAR)
    with pytest.raises(ValueError):
        Diagram((1, 2, 0, 3))
    with pytest.raises(ValueError):
        Diagram((1, 0, 3))
    with pytest.raises(ValueError):
        Diagram(pairing=(1, 0, 3, 2), topology=("sectored", 3))


def test_cached_views_read_the_same_cells():
    triangle = labelled.loop_triangle(2)
    assert triangle.entries == {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1, (2, 2): 1}
    assert triangle.entries is triangle.entries
    column = symmetry.simple_sector_counts(2, 3)
    assert column == SectorColumn((1, 1, 1, 2), [[1], [0, 1], [0, 0, 1], [0, 1, 0, 1]])
    assert column.by_diameter == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 1): 1, (3, 3): 1}
    assert column.by_diameter is column.by_diameter
    assert symmetry.simple_sector_counts(3, 3).by_diameter is None
    mirror = reflection.build_mirror_tables(3)
    assert mirror.counts == {(0, 0): 1, (1, 1): 1, (2, 0): 1, (3, 1): 4}
    assert mirror.end_chord == {(1, 1): 1, (3, 1): 1}
    assert mirror.counts is mirror.counts
    # a cached view is not a field: it changes neither equality nor repr
    fresh = MirrorTables(mirror.rows, mirror.end_chord_rows)
    assert fresh == mirror and repr(fresh) == repr(mirror)
