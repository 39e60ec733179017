"""Byte-identical CLI output for a fixed command set.

Each digest is the SHA-256 of the command's stdout, captured before the
refactors it guards.  A digest that changes means the output changed: if
the change is meant, say so where it is made and recapture.
"""

import hashlib
from collections import Counter

import pytest

from chordenum.cli import SEQ_FAMILIES, TRIANGLE_NAMES, main
from chordenum.series import MARKER_SERIES, SERIES_NAMES

SNAPSHOT = {
    "seq loopless-linear --max 30": "510c341d1928500989a74277ad257bb02b3a3cdb528d7ab70d099fbab339ce03",
    "seq loopless-chord --max 30": "82798f5437b601172843f3f701759afd4545a2716bded5e713bcec95be277670",
    "seq loopless-cyclic --max 30": "c493a4798bea4c4211cae4182551adf5778e856d1a3ff52c754f4a58ad07cc07",
    "seq loopless-dihedral --max 30": "e8a1c16188cf73559f34592367f481a6bbfe5fd82af84d5382891265886c510e",
    "seq simple-linear --max 30": "d86972128928572dd4d583b4a632f282c211553bd15b99e2f2756ffd8151ba31",
    "seq simple-chord --max 30": "62fc10d85e93561c09df6cdfddac9fb87f341208b512f837e4ed477cadf4182c",
    "seq simple-cyclic --max 30": "fb6afd674af8f56911a4bb9378e415d38f7a2c1b9f67b6fff2470a14294ea459",
    "seq simple-dihedral --max 30": "d122fc28e866f19f0387d07c9b7837e24f2a09abc800a645f391f8534a5704a9",
    "seq all --max 30": "c893c0ffd69967f70b67bdc00d3b3fa7338efe9f7853c48c9bc1ac96c7aa194d",
    "triangle a_nk": "3778a960beafc3d689632bd30420659ca9f3a13aa4d6dccf319c82d508bcf652",
    "triangle a_nkl": "56d9293101c58144e059100cbeb8b54a74803136161899088e25730f3f208ee3",
    "triangle ahat_nl": "ad37f47da686209db1b28302f46e57eebdf958a2cb1fc8cf3c8a6955e7b2ee19",
    "series b --order 12": "3c1c61f65bbab710c479c72c334eca405bc712f5515feb81e9ad11fa793f237e",
    "series phi --order 12": "59917cd39d9cd6912f7d1d815d1d5b303861fa36884c2c90a5ab297eec4c8b48",
    "series chi --order 12": "14f04b1038a686d506757c323f88736f6f0e5318cbbabf74a3f62564b358fb3d",
    "series psi --order 12": "32e04388e6364a5fbcdabfa8e38e94fd26005a2f724733d9451b60bb2be0cac9",
    "series W --order 12": "b49404a6fa839a99cdfdf81ad55c9ec0ce13685cdce686990e71e1fb0acc6231",
    "series U --order 12": "6ced3cc088188ddd82c5bc4f4c434d44b81e22c54e377860a36b7e207f15aad9",
    "series wz --order 12 --z 0": "59917cd39d9cd6912f7d1d815d1d5b303861fa36884c2c90a5ab297eec4c8b48",
    "series wz --order 12 --z 1": "3c1c61f65bbab710c479c72c334eca405bc712f5515feb81e9ad11fa793f237e",
    "series wx --order 12 --x 0": "30793dc3f303a3eaf9f7fd0f90ddb731937a96ea7842a535c95937261cea5ec8",
    "series wx --order 12 --x 1": "b300c7d5503f1dd986edd633b521e739268cbf7dbcba093d93fce44f2f583140",
    "series wzx --order 12 --z 0 --x 0": "b49404a6fa839a99cdfdf81ad55c9ec0ce13685cdce686990e71e1fb0acc6231",
    "series wzx --order 12 --z 0 --x 1": "fe5ec24de11fbadcf9d590742337489284fc84a0e71b006c5f61f759accdd578",
    "series wzx --order 12 --z 1 --x 0": "30793dc3f303a3eaf9f7fd0f90ddb731937a96ea7842a535c95937261cea5ec8",
    "series wzx --order 12 --z 1 --x 1": "b300c7d5503f1dd986edd633b521e739268cbf7dbcba093d93fce44f2f583140",
    "fixed --n 12": "5e02ebc386c26c33588452dffc1d5321f63d67bb21b35f31f220e5fcccef335f",
    "verify --max 5": "dbd850162c5f3a2a27635f5b33f47d07abdb5a68fdbd27dc377b3eaec7d8682e",
}


def test_snapshot_covers_every_family_triangle_and_series():
    names = {tuple(command.split()[:2]) for command in SNAPSHOT}
    assert {("seq", family) for family in SEQ_FAMILIES} <= names
    assert {("triangle", name) for name in TRIANGLE_NAMES} <= names
    assert {("series", name) for name in SERIES_NAMES} <= names
    assignments = Counter(command.split()[1] for command in SNAPSHOT if command.startswith("series "))
    assert [assignments[name] for name in MARKER_SERIES] == [2, 2, 4]  # every 0/1 marker choice

@pytest.mark.parametrize("command", sorted(SNAPSHOT))
def test_cli_output_is_byte_identical(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SNAPSHOT[command]
