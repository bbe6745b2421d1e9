"""Golden digests of `flagtutte compute --invariant kt --equivariant` stdout.

Every tests/data flag document and one disconnected inline flag, whose
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


def test_every_flag_document_has_digests():
    flags = sorted(f for f in os.listdir(DATA) if f.startswith("flag_"))
    assert flags == sorted(set(GOLDEN) - {"disconnected"})


@pytest.mark.parametrize("source", sorted(GOLDEN))
def test_compute_equivariant_stdout_digests(source, capsys):
    argument = (DISCONNECTED if source == "disconnected"
                else os.path.join(DATA, source))
    for fmt, want in zip(("text", "json"), GOLDEN[source]):
        code = cli.main(["compute", "--invariant", "kt", "--equivariant",
                         "--format", fmt, "--input", argument])
        out = capsys.readouterr().out
        assert code == 0, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt
