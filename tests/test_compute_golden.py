"""Golden digests of `flagtutte compute --invariant kt|lvt --equivariant`.

Every tests/data flag document and one disconnected inline flag, whose kt
support is a product of block supports, in text and in json; the sha256
of stdout must not change.
"""

import hashlib
import json
import os

import pytest

from flagtutte import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
DISCONNECTED = json.dumps({"type": "flag", "constituents": [
    {"type": "bases", "n": 5, "bases": [[1, 4], [2, 4]]},
    {"type": "bases", "n": 5, "bases": [[1, 2, 4], [1, 3, 4], [2, 3, 4]]},
]})

# input -> (sha256 of text stdout, sha256 of json stdout)
GOLDEN = {
    "flag_u13_u23.json": (
        "af67c915caa87c3a11c545cc9aa4bacb1d809cee2e2f0337e05237dedfe2194e",
        "27ae1acc1dc7cfd6323a8cee87d9ba274478cfc928cd19342af36104b5fbc642"),
    "flag_u14_u24.json": (
        "cd19b3006597832410b2aefb7334a55a5e9d77e68a83a5b0f819f3f048343cf7",
        "65a346e991f8953484499d5aa2aee587aa0acf121092726dd1fbf69993de2592"),
    "flag_u24_u34_lvdiagram.json": (
        "523c5c3e6b8e75199977565b47774ef5650306c780df9a4d6dc17beb66ae2856",
        "da98723cdad4d16eb769f9c0fceb622c91cc18f7aa2d7ec6b741aee922db1f25"),
    "disconnected": (
        "e069bb99631283462b8f1400578cde9363772bf77bbca60597ff7f41b40cf95e",
        "61f3fcc2e2b032fb02e08aa9cd373d70ac90b9de55b17f07939596646d64f209"),
}

# the same for --invariant lvt
LVT_GOLDEN = {
    "flag_u13_u23.json": (
        "ce892855eb5fceffa89ab64f04fff54b0c5ca2247ae6fde07d573165d76b99e3",
        "e413d41c18342b4b7e48159a592593ca9e0ea71c954994defd8cc6edbada01eb"),
    "flag_u14_u24.json": (
        "0afacb4a37eb286481a3c2767ebe707c4bf55a41df3f30b210733eb09830c062",
        "b7b07090ff3c0881dbf06b93316b1a9aef1f1a96cb5d27ce7818c838a9eb911f"),
    "flag_u24_u34_lvdiagram.json": (
        "982b1328abb46f00473a4265f06000ecf83be61717cd8bbc0e88cd2f9fbfc803",
        "3e37dbfd22c67873ee1203042b0cc540830a19b703046332691e2cf623fb371c"),
    "disconnected": (
        "84e477ba9f1e38eb849d2a59e156a79999cb7e4e86718b2213d402cb327aaed0",
        "072977cdd5e515a6650c8a68b592a1dfcdef4fcacd7b3e0dbaab772925bda5fc"),
}


def test_every_flag_document_has_digests():
    flags = sorted(f for f in os.listdir(DATA) if f.startswith("flag_"))
    assert flags == sorted(set(GOLDEN) - {"disconnected"})
    assert flags == sorted(set(LVT_GOLDEN) - {"disconnected"})


def _check_stdout(invariant, source, golden, capsys):
    argument = (DISCONNECTED if source == "disconnected"
                else os.path.join(DATA, source))
    for fmt, want in zip(("text", "json"), golden[source]):
        code = cli.main(["compute", "--invariant", invariant, "--equivariant",
                         "--format", fmt, "--input", argument])
        out = capsys.readouterr().out
        assert code == 0, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


@pytest.mark.parametrize("source", sorted(GOLDEN))
def test_compute_equivariant_stdout_digests(source, capsys):
    _check_stdout("kt", source, GOLDEN, capsys)


@pytest.mark.parametrize("source", sorted(LVT_GOLDEN))
def test_compute_lvt_equivariant_stdout_digests(source, capsys):
    _check_stdout("lvt", source, LVT_GOLDEN, capsys)
