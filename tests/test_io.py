"""JSON input documents: every accepted shape plus the rejection paths."""

import json
from fractions import Fraction

import pytest

from flagtutte import (FlagMatroid, Matroid, load_input, matroid_from_dict,
                       object_from_dict, object_to_dict)
from flagtutte.errors import NotAMatroid, ParseError

U = Matroid.uniform


def test_uniform_document():
    assert matroid_from_dict({"type": "uniform", "r": 2, "n": 4}) == U(2, 4)


def test_bases_document():
    m = matroid_from_dict(
        {"type": "bases", "n": 3, "bases": [[1, 2], [1, 3]]})
    assert m == Matroid.from_bases(3, [{1, 2}, {1, 3}])


def test_matrix_document_with_fractions():
    m = matroid_from_dict(
        {"type": "matrix", "rows": [["1", "0", "1/2"], [0, 1, 1]]})
    assert m == Matroid.from_matrix(
        [[1, 0, Fraction(1, 2)], [0, 1, 1]])


def test_graphic_document():
    doc = {"type": "graphic", "vertices": 4,
           "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
    m = matroid_from_dict(doc)
    assert m == Matroid.graphic([(1, 2), (2, 3), (3, 4), (1, 4)],
                                n_vertices=4)


def test_flag_document():
    doc = {"type": "flag", "constituents": [
        {"type": "uniform", "r": 1, "n": 3},
        {"type": "uniform", "r": 2, "n": 3}]}
    fm = object_from_dict(doc)
    assert isinstance(fm, FlagMatroid)
    assert fm.ranks == (1, 2)


def test_document_rejections():
    with pytest.raises(ParseError):
        matroid_from_dict({"type": "unicorn", "n": 3})
    with pytest.raises(ParseError):
        matroid_from_dict({"type": "uniform", "n": 3})  # missing r
    with pytest.raises(ParseError):
        matroid_from_dict({"type": "matrix", "rows": [[True]]})
    with pytest.raises(ParseError):
        matroid_from_dict({"type": "matrix", "rows": [["1/0"]]})
    with pytest.raises(ParseError):
        matroid_from_dict(["not", "a", "dict"])
    with pytest.raises(ParseError):
        object_from_dict({"type": "flag", "constituents": []})
    # structural validation still applies after parsing
    with pytest.raises(NotAMatroid):
        matroid_from_dict(
            {"type": "bases", "n": 4, "bases": [[1, 2], [3, 4]]})


def test_load_input_inline_and_file(tmp_path):
    inline = '{"type": "uniform", "r": 1, "n": 2}'
    assert load_input(inline) == U(1, 2)
    path = tmp_path / "m.json"
    path.write_text(inline)
    assert load_input(str(path)) == U(1, 2)


def test_load_input_list_document():
    doc = json.dumps([{"type": "uniform", "r": 1, "n": 2},
                      {"type": "uniform", "r": 1, "n": 3}])
    out = load_input(doc)
    assert isinstance(out, list)
    assert out == [U(1, 2), U(1, 3)]


def test_load_input_errors(tmp_path):
    with pytest.raises(ParseError):
        load_input("/no/such/file.json")
    with pytest.raises(ParseError) as exc:
        load_input('{"type": "uniform", }')
    assert "line" in str(exc.value) and "column" in str(exc.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(ParseError):
        load_input(str(bad))


def test_integer_fields_are_not_truncated():
    # a fractional number or a boolean where an integer belongs is refused;
    # int() would read [1.9, 2] as {1, 2} and r = true as 1
    for doc in ({"type": "bases", "n": 3, "bases": [[1.9, 2]]},
                {"type": "uniform", "r": 1.5, "n": 3},
                {"type": "uniform", "r": True, "n": 3},
                {"type": "uniform", "r": 1, "n": 3.5},
                {"type": "bases", "n": 3.5, "bases": [[1, 2]]},
                {"type": "graphic", "edges": [[1, 2.7], [2, 3]]},
                {"type": "graphic", "vertices": 4.5, "edges": [[1, 2]]}):
        with pytest.raises(ParseError, match="expected an integer"):
            matroid_from_dict(doc)
    # integral values load as before, floats with no fraction included
    assert matroid_from_dict({"type": "uniform", "r": 2.0, "n": 4}) == U(2, 4)
    assert matroid_from_dict(
        {"type": "bases", "n": 3.0, "bases": [[1.0, 2], [1, 3]]}
    ) == Matroid.from_bases(3, [{1, 2}, {1, 3}])
    assert matroid_from_dict(
        {"type": "graphic", "vertices": 3.0, "edges": [[1, 2], [2, 3.0]]}
    ) == Matroid.graphic([(1, 2), (2, 3)], n_vertices=3)


def test_object_to_dict_roundtrip():
    for obj in [U(2, 4), Matroid.from_bases(3, [{1, 2}, {1, 3}]),
                FlagMatroid((U(1, 3), U(2, 3)))]:
        doc = object_to_dict(obj)
        json.dumps(doc)  # serializable
        assert object_from_dict(doc) == obj


def test_fixture_files_load():
    import os
    data = os.path.join(os.path.dirname(__file__), "data")
    fm = load_input(os.path.join(data, "flag_u13_u23.json"))
    assert isinstance(fm, FlagMatroid) and fm.ranks == (1, 2)
    assert load_input(os.path.join(data, "uniform_1_2.json")) == U(1, 2)
    m = load_input(os.path.join(data, "graphic_k4.json"))
    assert m.n == 6 and m.rank_value == 3
    m = load_input(os.path.join(data, "matrix_rank2.json"))
    assert m.rank_value == 2
    m = load_input(os.path.join(data, "bases_pendant.json"))
    assert m.coloops() == frozenset({1})
