"""The package's public names, ``anticipated_surprise.__all__``.

A name deleted from its module but left in ``__all__`` breaks
``from anticipated_surprise import *``; a name that ``__init__`` imports
but leaves out of ``__all__`` is public in use but not in the list.
"""

import ast
from pathlib import Path

import anticipated_surprise

INIT = Path(anticipated_surprise.__file__)


def imported_names() -> list[str]:
    """The names bound by ``__init__``'s ``from ... import`` statements."""
    return [alias.asname or alias.name
            for stmt in ast.parse(INIT.read_text(encoding="utf-8")).body
            if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]


def test_every_listed_name_resolves():
    listed = anticipated_surprise.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(anticipated_surprise, name)] == []
    namespace: dict = {}
    exec("from anticipated_surprise import *", namespace)
    assert set(listed) <= namespace.keys()


def test_every_imported_public_name_is_listed():
    public = [name for name in imported_names() if not name.startswith("_")]
    assert public
    assert sorted(set(public) - set(anticipated_surprise.__all__)) == []
