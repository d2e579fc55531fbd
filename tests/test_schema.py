"""The contract of ``schema.at``, and the two schema errors the README quotes."""

import json

import pytest

from invsys.cli import main
from invsys.schema import SchemaError, at


def test_no_exception_passes_silently():
    with at("$.ring") as bound:
        value = 3
    assert bound is None
    assert value == 3


def test_schema_error_passes_through_unchanged():
    err = SchemaError("$.tree.count: already reported")
    with pytest.raises(SchemaError) as caught:
        with at("$.ring"):
            raise err
    assert caught.value is err
    assert str(caught.value) == "$.tree.count: already reported"
    assert caught.value.__cause__ is None


def test_missing_key_is_reported_at_path_dot_key():
    with pytest.raises(SchemaError) as caught:
        with at("$.ring"):
            {"kind": "zmod"}["m"]
    assert str(caught.value) == "$.ring.m: missing key"
    assert isinstance(caught.value.__cause__, KeyError)
    assert caught.value.__cause__.args == ("m",)


@pytest.mark.parametrize("kind", [TypeError, ValueError])
def test_type_and_value_errors_are_reported_at_path(kind):
    original = kind("modulus must be an integer, got 'x'")
    with pytest.raises(SchemaError) as caught:
        with at("$.ring.m"):
            raise original
    assert str(caught.value) == "$.ring.m: modulus must be an integer, got 'x'"
    assert caught.value.__cause__ is original


@pytest.mark.parametrize("kind", [IndexError, ZeroDivisionError, RuntimeError, KeyboardInterrupt])
def test_other_exceptions_pass_through(kind):
    original = kind("not a schema matter")
    with pytest.raises(kind) as caught:
        with at("$.ring"):
            raise original
    assert caught.value is original
    assert caught.value.__cause__ is None


def test_innermost_path_wins():
    with pytest.raises(SchemaError) as caught:
        with at("$"):
            with at("$.fact_y[0]"):
                with at("$.fact_y[0].elem"):
                    {}["level"]
    assert str(caught.value) == "$.fact_y[0].elem.level: missing key"
    assert isinstance(caught.value.__cause__, KeyError)


def test_outer_path_reports_what_the_inner_block_let_through():
    with pytest.raises(SchemaError) as caught:
        with at("$"):
            with at("$.combo"):
                pass
            int("seven")
    assert str(caught.value).startswith("$: invalid literal for int()")
    assert isinstance(caught.value.__cause__, ValueError)


SYSTEM = {"ring": {"kind": "zmod", "m": 3}, "tree": {"kind": "disjoint_branches", "count": 2}}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_readme_schema_errors_exit_2(tmp_path, capsys, monkeypatch, fmt):
    """The two messages the README's CLI section quotes, through ``main``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.json").write_text(json.dumps(SYSTEM))
    (tmp_path / "sys.json").write_text(json.dumps({"ring": {"kind": "zmod"},
                                                   "tree": SYSTEM["tree"]}))
    term = {"node": {"level": 0, "address": 0}, "coeff": 1}
    (tmp_path / "a.json").write_text(json.dumps(
        {"combo": [], "fact_y": [{"level": 0, "elem": {"level": 0, "terms": [term]}}]}))
    cases = [
        (["--system", "sys.json", "--cmd", "card"], "sys.json: $.ring.m: missing key"),
        (["--system", "good.json", "--element", "a.json", "--cmd", "decompose"],
         "a.json: $.fact_y[0].elem.terms[0].l: missing key"),
    ]
    for argv, message in cases:
        assert main(argv + ["--format", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == (json.dumps({"error": message}, indent=2) + "\n" if fmt == "json"
                           else f"error: {message}\n")
        assert out.err == ""
