"""Byte-identical CLI output for a fixed command set.

Each digest is the SHA-256 of the command's stdout, captured before the
refactors it guards.  A digest that changes means the output changed: if
the change is meant, say so where it is made and recapture.  Set
CHORDENUM_ACCEPT_EXTENDED=1 to check the slower commands of
``EXTENDED_SNAPSHOT`` too.
"""

import hashlib
import os
from collections import Counter

import pytest

from chordenum import verify
from chordenum.cli import TRIANGLE_NAMES, main
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
    "seq loopless-cyclic --max 200": "297daff81b38f4687f48746ef15711d34790570b95867483acf01626de76fd8f",
    "seq loopless-dihedral --max 200": "2f4c651945eb6401e718e3a3ca6ede0245619398a265a16363aebe9a5fae0e3e",
    "seq simple-cyclic --max 100": "e3468733e9cbee8eb29667d82b114a0c7e6dfaa3baa9b1675d3a44038573b569",
    "seq simple-dihedral --max 100": "0c243437abb42db60e0e399e70e5002050989ff76a9875260d35260d85c630b8",
    "seq simple-cyclic --max 200": "3fe8b66b8ec24a1da44221dfd293e2b7b03d65d3c067b1d8c83590b9623ed6a1",
    "seq simple-dihedral --max 200": "9ea4cdc439ba0205e8bf6faa450975bb14da5075a4008274e5ad035fa0075d54",
    "seq all --max 30": "c893c0ffd69967f70b67bdc00d3b3fa7338efe9f7853c48c9bc1ac96c7aa194d",
    "triangle a_nk": "3778a960beafc3d689632bd30420659ca9f3a13aa4d6dccf319c82d508bcf652",
    "triangle a_nkl": "56d9293101c58144e059100cbeb8b54a74803136161899088e25730f3f208ee3",
    "triangle ahat_nl": "ad37f47da686209db1b28302f46e57eebdf958a2cb1fc8cf3c8a6955e7b2ee19",
    "triangle a_nkl --max 12 --format csv": "058d5dd42b7c00aa65c37a23a8f7b3d2b2a752f767126290c63732775bd19646",
    "triangle ahat_nl --max 60": "1d61cf92426f050cd4aea0d737c807a7e4557fa591645d65e2e05c86c389d0aa",
    "series b --order 12": "3c1c61f65bbab710c479c72c334eca405bc712f5515feb81e9ad11fa793f237e",
    "series phi --order 12": "59917cd39d9cd6912f7d1d815d1d5b303861fa36884c2c90a5ab297eec4c8b48",
    "series chi --order 12": "14f04b1038a686d506757c323f88736f6f0e5318cbbabf74a3f62564b358fb3d",
    "series psi --order 12": "32e04388e6364a5fbcdabfa8e38e94fd26005a2f724733d9451b60bb2be0cac9",
    "series W --order 12": "b49404a6fa839a99cdfdf81ad55c9ec0ce13685cdce686990e71e1fb0acc6231",
    "series U --order 12": "6ced3cc088188ddd82c5bc4f4c434d44b81e22c54e377860a36b7e207f15aad9",
    "series b --order 200": "d905b898c10f974a6dbc0426fdd41b81a629c5200bdb210272db4c6da8eeaabd",
    "series phi --order 60": "1f3f3d4717e141b7ad3013b6ab460c26e1e2a5ebc69f755d0921984a3b4ece69",
    "series psi --order 60": "498c853cba8831422c0d56b3f38ebad2d24005588b978a220840164f57ecb21d",
    "series W --order 60": "cf1ae16127de7f5f65b19afca88c903a033b20816cc58d84ec3bc6789d25bb1b",
    "series U --order 150": "181d0beebfb2f4879481fe9e8ddd702772ed4d028c50cc29cd0925da70acc104",
    "series wz --order 12 --z 0": "59917cd39d9cd6912f7d1d815d1d5b303861fa36884c2c90a5ab297eec4c8b48",
    "series wz --order 12 --z 1": "3c1c61f65bbab710c479c72c334eca405bc712f5515feb81e9ad11fa793f237e",
    "series wx --order 12 --x 0": "30793dc3f303a3eaf9f7fd0f90ddb731937a96ea7842a535c95937261cea5ec8",
    "series wx --order 12 --x 1": "b300c7d5503f1dd986edd633b521e739268cbf7dbcba093d93fce44f2f583140",
    "series wzx --order 12 --z 0 --x 0": "b49404a6fa839a99cdfdf81ad55c9ec0ce13685cdce686990e71e1fb0acc6231",
    "series wzx --order 12 --z 0 --x 1": "fe5ec24de11fbadcf9d590742337489284fc84a0e71b006c5f61f759accdd578",
    "series wzx --order 12 --z 1 --x 0": "30793dc3f303a3eaf9f7fd0f90ddb731937a96ea7842a535c95937261cea5ec8",
    "series wzx --order 12 --z 1 --x 1": "b300c7d5503f1dd986edd633b521e739268cbf7dbcba093d93fce44f2f583140",
    "fixed --n 12": "5e02ebc386c26c33588452dffc1d5321f63d67bb21b35f31f220e5fcccef335f",
    "fixed --n 80": "e84df345d6ecdad12d40325f6dea29a60c55c6fdd6f9bf1a0ee8de4b67122f1c",
    "verify --tables": "63962bd86de0c78a3d5328ec1c509b5b867e9b0d2a13dadba2baf41976555f98",
    "verify --max 1": "5b3e99a3342faff1a7ccaedd40ec0e4956c524fb8f96ef22b3c7cc581ec91a1f",
    "verify --max 5": "dbd850162c5f3a2a27635f5b33f47d07abdb5a68fdbd27dc377b3eaec7d8682e",
    "verify --max 6": "eeb27102236f64193ac1ff3f2dfe92aae53839129f26937bfb0aaf1b5fdc6751",
    "verify --max 7": "f241c32f821d6289d15bb255336282fb28c09fb42bdad7ba8fb767731dea237f",
    "octahedron --n 1": "2c4f87419b443a046192d9760e51f334883b4856f68f0213736c27cc7cf37648",
    "octahedron --n 5": "6fa61f93f9f14f9af41ba54a66c366b634f69a312da0c791f6feb1adc0097412",
    "octahedron --n 2 --list": "258abd7dfc9ad238e728474aea289bf38d98289acae66f7d90141679ed6790a6",
    "octahedron --n 4": "554a2622e718aadf25ea00f7324d5d96bca2159c87370c29da18b60759381902",
    "octahedron --n 3 --list": "13acdd5ae2052f4cf047bfe806913e4f2aa6a7e7f124c18063e78118f4ea8c21",
    "octahedron --n 4 --list": "9cd9ddfe768187c53ea965eb7e1b12f5da581391cd97263f5c3d753871e9d661",
}

# about 3 s in all on a 2-vCPU host: verify --max 8 0.7-1.0 s, fixed --n 1000 0.55 s,
# each triangle --max 400 0.45-0.55 s, seq simple-* --max 600 0.2-0.35 s
EXTENDED_SNAPSHOT = {
    "verify --max 8": "e1f1df9c8ccafb4db6e6371917e74b80846c9e9b84b5dbd0758b003930de0cb6",
    "seq simple-cyclic --max 600": "e71e216babb45c06d3bbe364401a768ae34288be0397e18e0e5fc2f4eef687ce",
    "seq simple-dihedral --max 600": "e655f8f2cf02a03e9febc2a2fc6e0b8a0b3d1724d62aece74415bf110794fd33",
    "seq loopless-cyclic --max 600": "dd0babf3a0fead24b6b3191585f6ede73384ce2b22ff611569eb979ac12bc732",
    "seq loopless-dihedral --max 600": "70ccf9b9067bb91615ad76cb8e75129f3f9761e4ef9c8f427cc84d98f76b35f9",
    "fixed --n 1000": "bf2699c7e9770f7f9725accde068307e17d5e8fcc8627456889b28afa380126c",
    "triangle a_nk --max 400": "1c0079101ae1ae9aa4e308ad76d77b4447c7e8f3d9756b00398093e50f75ce08",
    "triangle ahat_nl --max 400": "0104b22cd35e21cbd4d12aeeb547f92b2487be7823f808671aa78f9878930178",
}

CHECKED = {**SNAPSHOT, **EXTENDED_SNAPSHOT} if os.environ.get("CHORDENUM_ACCEPT_EXTENDED") == "1" else SNAPSHOT


def test_snapshot_covers_every_family_triangle_and_series():
    names = {tuple(command.split()[:2]) for command in SNAPSHOT}
    assert {("seq", family) for family in verify.FAMILIES} <= names
    assert {("triangle", name) for name in TRIANGLE_NAMES} <= names
    assert {("series", name) for name in SERIES_NAMES} <= names
    assignments = Counter(command.split()[1] for command in SNAPSHOT if command.startswith("series "))
    assert [assignments[name] for name in MARKER_SERIES] == [2, 2, 4]  # every 0/1 marker choice

@pytest.mark.parametrize("command", sorted(CHECKED))
def test_cli_output_is_byte_identical(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECKED[command]
