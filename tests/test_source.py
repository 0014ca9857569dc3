import pathlib
import warnings

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "metatext").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_with_warnings_as_errors(path):
    # An invalid escape such as "\ " in a docstring warns today and is a
    # SyntaxError under -W error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
