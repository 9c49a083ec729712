"""Lexer for the J&s surface language: one compiled master regex.

Identifiers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``) and numbers use the
ASCII digits only; any other character outside a string literal or a
comment is ``JNS-LEX-001``.  (Generated Python code names locals after
J&s identifiers, and CPython NFKC-folds non-ASCII names, so ``ﬁ`` and
``fi`` would be one variable on the codegen backend.)
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import List, Optional

from ..diagnostics import DiagnosticSink, Span
from ..errors import JnsError
from ..obs import TRACER
from .tokens import (
    DOUBLE_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    PUNCT,
    PUNCTUATION,
    STRING_LIT,
    Token,
)


class LexError(JnsError):
    """Raised when the input contains a character sequence that is not a
    valid J&s token."""

    code = "JNS-LEX-001"

    def __init__(
        self, message: str, line: int, col: int, code: Optional[str] = None
    ) -> None:
        super().__init__(
            f"{message} at {line}:{col}", code=code, span=Span(line, col)
        )
        self.line = line
        self.col = col


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'", "0": "\0"}
_ESCAPE = re.compile(r"\\([\s\S])")

_MULTI_PUNCT = "|".join(re.escape(p) for p in PUNCTUATION if len(p) > 1)
_SINGLE_PUNCT = "".join(re.escape(p) for p in PUNCTUATION if len(p) == 1)

#: One alternative per token class, each followed by the blanks after it.
#: ``OPEN_STRING`` is a string literal up to (not including) its closing
#: quote; when the quote follows, the last group to match is ``STRING``.
#: A block comment without ``*/`` falls through to ``OPEN_COMMENT``.
#: Comments and numbers precede ``PUNCT`` because of ``/`` and ``.5``.
_MASTER = re.compile(
    r"(?:(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<NEWLINE>\n)"
    r"|(?P<SKIP>//[^\n]*|[ \t\r]+)"
    r"|(?P<COMMENT>/\*[\s\S]*?\*/)"
    r"|(?P<OPEN_COMMENT>/\*)"
    r"|(?P<NUMBER>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<PUNCT>{_MULTI_PUNCT}|[{_SINGLE_PUNCT}])"
    r'|(?P<OPEN_STRING>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*)(?P<STRING>")?'
    r"|(?P<BAD>[\s\S]))[ \t\r]*"
)

#: builds a :class:`Token` from a plain 4-tuple without a Python-level call
_as_token = tuple.__new__


def tokenize(source: str, sink: Optional[DiagnosticSink] = None) -> List[Token]:
    """Convert ``source`` into a token list ending with an EOF token.

    Supports ``//`` line comments and ``/* */`` block comments.

    Without a ``sink`` the first lexical error raises :class:`LexError`.
    With one, errors are recorded as diagnostics and lexing continues
    (skipping the offending character / truncating the offending
    literal) so later phases can still report *their* findings.
    """
    if not TRACER.enabled:
        return _tokenize(source, sink)
    with TRACER.span("lex", chars=len(source)):
        tokens = _tokenize(source, sink)
        TRACER.count("lex.tokens", len(tokens))
        return tokens


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


def _tokenize(source: str, sink: Optional[DiagnosticSink]) -> List[Token]:
    raw: List[tuple] = []  # (kind, value, line, col), made Tokens at the end
    append = raw.append
    line = 1
    line_start = -1  # offset of the newline before ``line``

    def fail(message: str, offset: int, code: str) -> None:
        # Errors are rare, so their positions are counted from the start.
        err_line = source.count("\n", 0, offset) + 1
        err_col = offset - source.rfind("\n", 0, offset)
        if sink is None:
            raise LexError(message, err_line, err_col, code=code)
        sink.error(
            code, f"{message} at {err_line}:{err_col}", span=Span(err_line, err_col)
        )

    for m in _MASTER.finditer(source):
        group = m.lastgroup
        if group == "WORD":
            text = m[group]
            kind = KEYWORD if text in KEYWORDS else IDENT
            append((kind, text, line, m.start() - line_start))
        elif group == "PUNCT":
            append((PUNCT, m[group], line, m.start() - line_start))
        elif group == "NEWLINE":
            line += 1
            line_start = m.start()
        elif group == "NUMBER":
            text = m[group]
            kind = INT_LIT if text.isdigit() else DOUBLE_LIT
            append((kind, text, line, m.start() - line_start))
        elif group == "SKIP":
            pass
        elif group == "COMMENT":
            text = m[group]
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n")
        elif group == "STRING" or group == "OPEN_STRING":
            start = m.start()
            body = m["OPEN_STRING"][1:]
            unclosed = group == "OPEN_STRING"
            at_newline = unclosed and source.startswith("\n", m.end(group))
            if at_newline:
                fail("newline in string literal", m.end(group), "JNS-LEX-004")
            elif unclosed:
                fail("unterminated string literal", start, "JNS-LEX-002")
            append((STRING_LIT, _unescape(body), line, start - line_start))
            if "\n" in body:  # escaped newlines
                line += body.count("\n")
                line_start = start + 1 + body.rindex("\n")
            if unclosed and not at_newline:
                break  # at the end of the input, or at a lone trailing '\'
        elif group == "OPEN_COMMENT":
            fail("unterminated block comment", m.start(), "JNS-LEX-003")
            break
        else:  # BAD: recovery skips the offending character
            fail(f"unexpected character {m[group]!r}", m.start(), "JNS-LEX-001")

    append((EOF, "", source.count("\n") + 1, len(source) - source.rfind("\n")))
    return list(map(_as_token, repeat(Token), raw))
