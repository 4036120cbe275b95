"""The package's modules stay small enough for CPython's parser.

CPython 3.11's parser holds a module's tokens in an array that doubles at
4,096 entries, so a module past that step raises the peak RSS of every
process that compiles it from source.  Tokens are counted as ``tokenize``
yields them, without comments, non-logical newlines and the encoding.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import ci_invariants

PARSER_STEP = 4096
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path: Path) -> int:
    with path.open("rb") as source:
        return sum(token.type not in UNCOUNTED for token in tokenize.tokenize(source.readline))


def test_every_module_stays_under_the_parser_token_step():
    modules = sorted(Path(ci_invariants.__file__).parent.glob("*.py"))
    assert len(modules) >= 8, "the package's modules were not found"
    tokens = {path.name: parser_tokens(path) for path in modules}
    assert {name: count for name, count in tokens.items() if count >= PARSER_STEP} == {}
