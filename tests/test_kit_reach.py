"""Static check that ``src/yolokit`` holds no function that only tests reach.

Every function or method defined in ``src/yolokit`` must be named somewhere
in the code of ``src/yolokit`` or ``perfbench/``, apart from its own ``def``:
as a NAME token, or as a string literal that equals the name or ends in
``.name``, which is how perfbench's tracer names what it patches; an
f-string's fields are code. Comments, docstrings and the package
``__init__``'s re-exports do not count.
``oracles.py`` (the independent cross-checks) and dunders are exempt. The
trees are read with ``tokenize``; nothing of the kit is imported or run.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KIT = ROOT / "src" / "yolokit"
TREES = (KIT, ROOT / "perfbench")
EXEMPT = KIT / "oracles.py"
REEXPORTS = KIT / "__init__.py"

_SKIPPED = {tokenize.NL, tokenize.COMMENT}
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def _tokens(source: bytes) -> list[tokenize.TokenInfo]:
    return [tok for tok in tokenize.tokenize(io.BytesIO(source).readline)
            if tok.type not in _SKIPPED]


def _scan(source: bytes):
    """(definitions, names): each ``def``'s (name, line), and every name the
    source's code gives, by NAME token or by string literal."""
    tokens = _tokens(source)
    definitions, names = [], set()
    for prev, tok, nxt in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if tok.type == tokenize.NAME:
            if prev is not None and prev.string == "def":
                definitions.append((tok.string, tok.start[0]))
            else:
                names.add(tok.string)
        elif tok.type == tokenize.STRING:
            if prev.type in _STATEMENT_START and nxt.type == tokenize.NEWLINE:
                continue  # a docstring, or a string as a statement
            literal = ast.parse(tok.string, mode="eval").body
            if isinstance(literal, ast.JoinedStr):  # an f-string: its fields are code
                names |= {node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(literal)
                          if isinstance(node, (ast.Name, ast.Attribute))}
            elif isinstance(literal.value, str):
                names.add(literal.value.rpartition(".")[2])
    return definitions, names


def unnamed_functions(sources: dict) -> list[str]:
    """``path:line name`` of each function defined in a ``sources`` path
    under ``KIT`` (``oracles.py`` and dunders aside) that no source names;
    ``sources`` maps a path to its bytes."""
    defined, named = [], set()
    for path, source in sources.items():
        definitions, names = _scan(source)
        if path != REEXPORTS:
            named |= names
        if path.is_relative_to(KIT) and path != EXEMPT:
            defined += [(path, line, name) for name, line in definitions]
    return [f"{path.relative_to(ROOT)}:{line} {name}" for path, line, name in defined
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_every_kit_function_is_named_by_the_kit_or_perfbench():
    sources = {path: path.read_bytes() for tree in TREES for path in sorted(tree.rglob("*.py"))}
    assert KIT / "ops.py" in sources and ROOT / "perfbench" / "run.py" in sources
    assert unnamed_functions(sources) == []


def test_comments_docstrings_and_reexports_do_not_name_a_function():
    kit = {
        KIT / "a.py": b'def used():\n    """unused is named here."""\n    return 1\n'
                      b"def unused():  # used()\n    pass\n"
                      b"def patched():\n    pass\n"
                      b"def dunder():\n    pass\n"
                      b"def formatted():\n    pass\n"
                      b"class C:\n    def __len__(self):\n        return used()\n",
        KIT / "b.py": b'"""unused"""\nX = "a.patched"\nY = "dunder"\nZ = f"unused {formatted()}"\n',
        REEXPORTS: b'from .a import unused\n__all__ = ["unused"]\n',
    }
    assert [line.split()[-1] for line in unnamed_functions(kit)] == ["unused"]
