"""Front-end fuzzing over characters beyond ASCII.

The ``fuzz`` tests in ``test_robustness.py`` draw ASCII alphabets only;
these mix J&s punctuation with letters and digits that ``str.isalpha`` /
``str.isdigit`` accept but J&s does not (``é ﬁ ² ٣ ３``), plus ``§``,
quotes, backslashes and comment openers.  Marked ``fuzz``: tier-1 runs
the default hypothesis budget, ``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz``
raises it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import JnsError, check_source, compile_program
from repro.diagnostics import DiagnosticSink
from repro.source.lexer import tokenize
from repro.source.tokens import DOUBLE_LIT, IDENT, INT_LIT, KEYWORD, PUNCT

from conftest import FIG123_SOURCE

ALPHABET = "{}()[];,.=<>+-*/%!&|\\?:" + "classxyzABC_019" + ' \n\n"\\' + "éﬁ²٣§３"

#: token kinds whose value is their source text verbatim
_VERBATIM = (IDENT, KEYWORD, PUNCT, INT_LIT, DOUBLE_LIT)


def _assert_fails_cleanly(source: str) -> None:
    assert isinstance(check_source(source), DiagnosticSink)
    try:
        compile_program(source)
    except JnsError:
        pass


def _assert_positions_point_at_text(source: str) -> None:
    sink = DiagnosticSink()
    tokens = tokenize(source, sink=sink)
    if sink.diagnostics:
        return
    lines = source.split("\n")
    for tok in tokens:
        if tok.kind in _VERBATIM:
            text = lines[tok.line - 1][tok.col - 1 : tok.col - 1 + len(tok.value)]
            assert text == tok.value, tok


@pytest.mark.fuzz
@settings(deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=120))
def test_arbitrary_text_fails_cleanly(source):
    _assert_fails_cleanly(source)
    _assert_positions_point_at_text(source)


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    st.integers(0, len(FIG123_SOURCE)),
    st.text(alphabet=ALPHABET, min_size=1, max_size=12),
)
def test_text_inserted_into_a_program_fails_cleanly(position, inserted):
    source = FIG123_SOURCE[:position] + inserted + FIG123_SOURCE[position:]
    _assert_fails_cleanly(source)
    _assert_positions_point_at_text(source)
