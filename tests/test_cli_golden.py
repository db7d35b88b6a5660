"""Golden bytes of the CLI: fixed `cli.main` calls over catalog fixtures,
each pinned by the sha256 of its exit code, stdout, stderr and the bytes of
every file it writes.

The calls run in-process in a scratch directory and name their inputs by
relative paths, so the bytes do not depend on where the directory is.  They
cover every subcommand and action, in text and --json, passing and failing
with witnesses, -o and --rep-output, and usage, format and precondition
errors.  A change that alters any of these bytes on purpose regenerates the
table with `python tests/test_cli_golden.py` and names each changed hash.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from homstruct import catalog
from homstruct.cli import _COMMANDS, main
from homstruct.constructions import sub_adjacent
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    serialize_algebra,
    serialize_comultiplications,
    serialize_o_operator,
    serialize_representation,
)
from homstruct.duality import trivial_dual
from homstruct.matched_pairs import matched_pair_from_representation
from homstruct.representations import regular_representation

F = Fraction
T = "transposed-hom-poisson"


def _fixtures():
    """file name -> document text: catalog entries and what the library
    builds from them."""
    thp2 = catalog.get("THP2", {"lam": F(1)})
    reg = regular_representation(thp2, T)
    mp = matched_pair_from_representation(thp2, reg, T)
    sub = sub_adjacent(catalog.get("PLP2", {"a": F(0)}))
    # e1.e1 = e1, e1.e2 = e2.e1 = e2, a zero bracket and alpha = id: the
    # three equivalence verdicts pass against its zero dual
    unit = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)))),
            "bracket": BilinearMap(2)},
        {"alpha": LinearMap.identity(2)})
    return {
        "thp2.json": serialize_algebra(thp2),
        "thp2-lam.json": serialize_algebra(catalog.get("THP2")),
        "tp2.json": serialize_algebra(catalog.get("TP2")),
        "plp2.json": serialize_algebra(catalog.get("PLP2", {"a": F(0)})),
        "ca2a.json": serialize_algebra(catalog.get("CA2a")),
        "ca2b.json": serialize_algebra(catalog.get("CA2b")),
        "reg.json": serialize_representation(reg),
        "zb.json": serialize_algebra(mp.algebra_b),
        "zr.json": serialize_representation(mp.actions_ba),
        "dual.json": serialize_algebra(trivial_dual(thp2)),
        "coops.json": serialize_comultiplications(trivial_dual(thp2)),
        "sub.json": serialize_algebra(sub),
        "sub-reg.json": serialize_representation(regular_representation(sub, T)),
        "unit.json": serialize_algebra(unit),
        "unit-dual.json": serialize_algebra(trivial_dual(unit)),
        "id.json": serialize_o_operator(LinearMap.identity(2)),
        "e1.json": serialize_o_operator(LinearMap.diagonal([F(1), F(0)])),
        "zero.json": serialize_o_operator(LinearMap.zero(2)),
        "wide.json": serialize_o_operator(LinearMap.zero(2, 1)),
        "bad.json": "not json",
    }


_MATCHED = ["thp2.json", "zb.json", "reg.json", "zr.json", "--class", T]

CALLS = [
    ["check", "thp2.json", "--class", T],
    ["check", "thp2.json", "--class", T, "--json"],
    ["check", "thp2.json", "--class", "hom-poisson"],
    ["check", "thp2.json", "--class", "hom-poisson", "--json", "--max-witnesses", "2"],
    ["check", "thp2-lam.json", "--class", T, "--params", "lam=-1/2"],
    ["check", "plp2.json", "--class", "hom-pre-lie-poisson", "--json"],
    ["check", "ca2a.json", "--class", "comm-hom-assoc", "-o", "check.txt"],
    ["twist", "tp2.json", "--alpha-h", "e1"],
    ["twist", "tp2.json", "--alpha-h", "1,2", "-o", "twisted.json"],
    ["twist", "thp2.json", "--derived", "2", "--type", "2", "--class", T],
    ["twist", "thp2.json", "--compose", "alpha", "--class", T],
    ["twist", "thp2.json", "--yau", "alpha", "--class", T],
    ["tensor", "tp2.json", "thp2.json", "--class", T],
    ["tensor", "ca2a.json", "ca2b.json", "--class", "comm-hom-assoc"],
    ["tensor", "unit.json", "unit.json", "--class", "hom-poisson"],
    ["subadjacent", "plp2.json"],
    ["bracketd", "thp2.json", "--map", "D"],
    ["bracketd", "thp2.json", "--map", "D", "--map2", "D", "-o", "poisson.json"],
    ["bracketd", "ca2a.json", "--map", "alpha", "--map2", "alpha"],
    ["semidirect", "thp2.json", "reg.json", "--class", T],
    ["checkrep", "thp2.json", "reg.json", "--class", T, "--json"],
    ["checkrep", "tp2.json", "reg.json", "--class", T],
    ["dualrep", "thp2.json", "reg.json"],
    ["dualrep", "thp2.json", "reg.json", "--json", "--rep-output", "dual-rep.json"],
    ["matched", "check"] + _MATCHED,
    ["matched", "double"] + _MATCHED + ["--json"],
    ["manin", "thp2.json", "dual.json"],
    ["manin", "unit.json", "unit-dual.json", "--json"],
    ["bialgebra", "thp2.json", "coops.json"],
    ["bialgebra", "tp2.json", "coops.json", "--json"],
    ["equivalence", "thp2.json", "dual.json"],
    ["equivalence", "unit.json", "unit-dual.json"],
    ["equivalence", "unit.json", "unit-dual.json", "--json"],
    ["oop", "check", "sub.json", "sub-reg.json", "id.json", "--class", T],
    ["oop", "check", "thp2.json", "reg.json", "e1.json", "--class", T, "--json"],
    ["oop", "induce", "sub.json", "sub-reg.json", "id.json", "--class", T],
    ["rb", "check", "thp2.json", "zero.json", "--json"],
    ["rb", "check", "thp2.json", "id.json"],
    ["rb", "induce", "thp2.json", "zero.json", "-o", "induced.json"],
    ["rb", "check", "thp2.json", "wide.json"],
    ["derivations", "thp2.json"],
    ["derivations", "thp2.json", "--op", "bracket", "--commuting-with", "none", "--json"],
    ["derivations", "thp2.json", "--op", "nope"],
    ["catalog", "list"],
    ["catalog", "list", "--json"],
    ["catalog", "show", "THP2", "--params", "lam=2"],
    ["catalog", "show", "HP3", "--json"],
    [],
    ["bogus"],
    ["check", "thp2.json"],
    ["check", "missing.json", "--class", "hom-lie"],
    ["check", "bad.json", "--class", "hom-lie"],
    ["check", "thp2.json", "--class", "nope"],
    ["check", "thp2.json", "--class", "hom-lie", "--max-witnesses", "-1"],
    ["check", "thp2-lam.json", "--class", T, "--params", "=1,lam=0"],
    ["twist", "thp2.json", "--derived", "0", "--class", T],
    ["twist", "thp2.json", "--yau", "alpha"],
    ["catalog", "show"],
    ["checkrep", "thp2.json", "reg.json", "--class", "hom-poisson"],
    ["semidirect", "tp2.json", "reg.json", "--class", T],
]


def _files(root):
    return {path.name: path.read_bytes() for path in sorted(Path(root).iterdir())}


def outcomes(root):
    """Write the fixtures into the directory root and make every call there:
    {" ".join(argv): hash}, the hash of (exit code, stdout, stderr, the
    (name, bytes) of each file written or rewritten)."""
    for name, text in _fixtures().items():
        Path(root, name).write_text(text)
    here = os.getcwd()
    os.chdir(root)
    try:
        got = {}
        for argv in CALLS:
            before = _files(root)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            written = [(name, data) for name, data in _files(root).items()
                       if before.get(name) != data]
            key = repr((code, out.getvalue(), err.getvalue(), written)).encode()
            got[" ".join(argv)] = hashlib.sha256(key).hexdigest()[:24]
        return got
    finally:
        os.chdir(here)


GOLDEN = {
    'check thp2.json --class transposed-hom-poisson':
        '9e066f90e13b89e2938c0340',
    'check thp2.json --class transposed-hom-poisson --json':
        'd8375a2b0908efda395f9cd2',
    'check thp2.json --class hom-poisson':
        '03a6c1909748db3ff2438896',
    'check thp2.json --class hom-poisson --json --max-witnesses 2':
        'a2a4cb8f1b5e3897ab3db31e',
    'check thp2-lam.json --class transposed-hom-poisson --params lam=-1/2':
        '9e066f90e13b89e2938c0340',
    'check plp2.json --class hom-pre-lie-poisson --json':
        '3ea4003611ef1f6dc972a832',
    'check ca2a.json --class comm-hom-assoc -o check.txt':
        'e45f2f1603292d9f95454791',
    'twist tp2.json --alpha-h e1':
        'd6840c66114cfdf340c32760',
    'twist tp2.json --alpha-h 1,2 -o twisted.json':
        'a7e585ef435fe8071fb93774',
    'twist thp2.json --derived 2 --type 2 --class transposed-hom-poisson':
        'c027f58748ec67254f135dab',
    'twist thp2.json --compose alpha --class transposed-hom-poisson':
        'c027f58748ec67254f135dab',
    'twist thp2.json --yau alpha --class transposed-hom-poisson':
        'd4d3c7debdf1688c970229a0',
    'tensor tp2.json thp2.json --class transposed-hom-poisson':
        '8b2b5f778b56a1b745299678',
    'tensor ca2a.json ca2b.json --class comm-hom-assoc':
        '4ef9cde0023c2a2ed11ab2b4',
    'tensor unit.json unit.json --class hom-poisson':
        'e961a6c09cd2a6a6a6c3c36a',
    'subadjacent plp2.json':
        'ecab882e2235210c38272643',
    'bracketd thp2.json --map D':
        '576cfcace48fe45eb5767f2c',
    'bracketd thp2.json --map D --map2 D -o poisson.json':
        'eba78b5001f20eccff55bf2e',
    'bracketd ca2a.json --map alpha --map2 alpha':
        '4149d838963aaf691cef1cb8',
    'semidirect thp2.json reg.json --class transposed-hom-poisson':
        'ea9d349fee195071fb94e98b',
    'checkrep thp2.json reg.json --class transposed-hom-poisson --json':
        '23903942963fe3c50134d1c5',
    'checkrep tp2.json reg.json --class transposed-hom-poisson':
        '0d1b21631f4d704a5b05ca21',
    'dualrep thp2.json reg.json':
        'bbc82b3029350d91e787b1a7',
    'dualrep thp2.json reg.json --json --rep-output dual-rep.json':
        '225da6cd01c35bf3de8ef7f9',
    'matched check thp2.json zb.json reg.json zr.json --class transposed-hom-poisson':
        'eda47d6a273400098f8f664e',
    'matched double thp2.json zb.json reg.json zr.json --class transposed-hom-poisson --json':
        'ea9d349fee195071fb94e98b',
    'manin thp2.json dual.json':
        '565516499b6beffea2304248',
    'manin unit.json unit-dual.json --json':
        '3a174cec2ead0842cb4db506',
    'bialgebra thp2.json coops.json':
        'bc9c9ffc35f71466288fe8c4',
    'bialgebra tp2.json coops.json --json':
        'bffa78da2d0f923e2c729062',
    'equivalence thp2.json dual.json':
        '4a646206e850bcfb57662698',
    'equivalence unit.json unit-dual.json':
        '5f5b52fed4ab0d6d1e6aa240',
    'equivalence unit.json unit-dual.json --json':
        '1c593e8ed995d3a80c8f82fe',
    'oop check sub.json sub-reg.json id.json --class transposed-hom-poisson':
        'bdb0c029c96e2d24f4e8d939',
    'oop check thp2.json reg.json e1.json --class transposed-hom-poisson --json':
        '6a28c4c68e53e5b1d8685ace',
    'oop induce sub.json sub-reg.json id.json --class transposed-hom-poisson':
        'f9ffd6896f31f66c2dc48f2b',
    'rb check thp2.json zero.json --json':
        'e7dd24eac3c47f820859e60d',
    'rb check thp2.json id.json':
        '3ac5af9e0e1271d0fc7f8466',
    'rb induce thp2.json zero.json -o induced.json':
        '7618452392bfbc625c1ae09a',
    'rb check thp2.json wide.json':
        'd0d264b5061a7f92284bebc6',
    'derivations thp2.json':
        '7055ce3af3af6428f3bc5fc6',
    'derivations thp2.json --op bracket --commuting-with none --json':
        'b5858571c92e8f02c025d969',
    'derivations thp2.json --op nope':
        'e04de58068fa1a7bee5790fa',
    'catalog list':
        'dedd1535bf303ad29b9331a7',
    'catalog list --json':
        '2230614d42ca77630fba4752',
    'catalog show THP2 --params lam=2':
        '551956a50c07e552a7d286e2',
    'catalog show HP3 --json':
        '939334d1d9878a94fe4e02ff',
    '':
        'ecf94ec3d624fbf5fe84a07a',
    'bogus':
        '3cfb596dd359cdc5dfc21d05',
    'check thp2.json':
        '613688fcea150ed2702ffed3',
    'check missing.json --class hom-lie':
        '9e06799f6ae05ab367fbffa8',
    'check bad.json --class hom-lie':
        'a9679de76f8cf737b1e94dae',
    'check thp2.json --class nope':
        'cdaafeaf205093c05409059d',
    'check thp2.json --class hom-lie --max-witnesses -1':
        '3084ea0eae2d823d3fc582f9',
    'check thp2-lam.json --class transposed-hom-poisson --params =1,lam=0':
        'cbfd57be942ebe4682fceda6',
    'twist thp2.json --derived 0 --class transposed-hom-poisson':
        '4e951822487775c24efbb870',
    'twist thp2.json --yau alpha':
        '19c7dd0befc559a4ab99937b',
    'catalog show':
        '7013f49c9847c0809329871a',
    'checkrep thp2.json reg.json --class hom-poisson':
        '3b35c346a0743ad195c3909a',
    'semidirect tp2.json reg.json --class transposed-hom-poisson':
        'c1d84ac9c592650acc3e73da',
}


def test_cli_bytes_are_the_golden_ones(tmp_path):
    assert outcomes(str(tmp_path)) == GOLDEN


def test_calls_cover_every_subcommand_and_action_once():
    called = {tuple(argv[:n]) for argv in CALLS for n in (1, 2)}
    for name, entry in _COMMANDS.items():
        assert (name,) in called, name
        for action in entry.actions:
            assert (name, action) in called, (name, action)
    assert len({tuple(argv) for argv in CALLS}) == len(CALLS)
    # no fixture outlives the calls that read it
    assert set(_fixtures()) <= {arg for argv in CALLS for arg in argv}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = outcomes(root)
    sys.stdout.write("GOLDEN = {\n")
    for call, digest in table.items():
        sys.stdout.write("    %r:\n        %r,\n" % (call, digest))
    sys.stdout.write("}\n")
