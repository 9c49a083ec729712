"""Lexer unit tests."""

import pytest

from repro.source.lexer import LexError, tokenize
from repro.source.tokens import (
    DOUBLE_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    PUNCT,
    STRING_LIT,
)


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == EOF

    def test_identifier(self):
        toks = tokenize("fooBar_12")
        assert toks[0].kind == IDENT
        assert toks[0].value == "fooBar_12"

    def test_keyword_recognized(self):
        assert kinds("class") == [KEYWORD]

    def test_keyword_prefix_is_identifier(self):
        toks = tokenize("classy")
        assert toks[0].kind == IDENT

    def test_all_keywords(self):
        for word in ("view", "shares", "adapts", "sharing", "instanceof", "final"):
            assert tokenize(word)[0].kind == KEYWORD

    def test_int_literal(self):
        tok = tokenize("42")[0]
        assert tok.kind == INT_LIT
        assert tok.value == "42"

    def test_double_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == DOUBLE_LIT

    def test_double_with_exponent(self):
        assert tokenize("1e9")[0].kind == DOUBLE_LIT
        assert tokenize("2.5e-3")[0].kind == DOUBLE_LIT

    def test_int_followed_by_dot_method(self):
        # "1.e" is not a double continuation in our grammar: digit required
        toks = tokenize("x.f")
        assert [t.value for t in toks[:-1]] == ["x", ".", "f"]

    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind == STRING_LIT
        assert tok.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"line\nbreak"')


class TestPunctuation:
    def test_multichar_greedy(self):
        assert values("== != <= >= && ||") == ["==", "!=", "<=", ">=", "&&", "||"]

    def test_single_chars(self):
        assert values("{}()[];,.") == list("{}()[];,.")

    def test_backslash_for_masks(self):
        assert values("T\\f") == ["T", "\\", "f"]

    def test_exactness_bang(self):
        assert values("A!.B") == ["A", "!", ".", "B"]

    def test_increment(self):
        assert values("i++") == ["i", "++"]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("§")


class TestCommentsAndPositions:
    def test_line_comment(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_positions_after_comment(self):
        toks = tokenize("/* c */ x")
        assert toks[0].line == 1
        assert toks[0].col == 9

    def test_token_helpers(self):
        tok = tokenize("class")[0]
        assert tok.is_keyword("class")
        assert not tok.is_keyword("view")
        assert not tok.is_punct("{")


class TestAsciiOnly:
    """Identifiers and numbers are ASCII: ``str.isdigit`` accepts ``²``,
    which ``int()`` rejects, and ``str.isalpha`` accepts ``ﬁ``, which
    CPython's NFKC folding makes the same Python name as ``fi`` in
    generated code."""

    FOLDED = (
        "class Main { int main() { int ﬁ = 1; int fi = 2; "
        "return ﬁ * 10 + fi; } }"
    )

    @pytest.mark.parametrize("digit", ["²", "٣", "３"])
    def test_unicode_digit_is_an_unexpected_character(self, digit):
        from repro import JnsError, check_source, compile_program

        skipped = f"class Main {{ int main() {{ return 1{digit}; }} }}"
        sink = check_source(skipped)
        assert [d.code for d in sink.diagnostics] == ["JNS-LEX-001"]
        assert sink.diagnostics[0].span.col == skipped.index(digit) + 1
        alone = f"class Main {{ int main() {{ return {digit}; }} }}"
        assert check_source(alone).diagnostics[0].code == "JNS-LEX-001"
        for source in (skipped, alone):
            with pytest.raises(LexError) as info:
                compile_program(source)
            assert info.value.code == "JNS-LEX-001"
        with pytest.raises(JnsError):
            tokenize(digit)

    def test_unicode_digit_does_not_continue_a_number(self):
        from repro.diagnostics import DiagnosticSink

        sink = DiagnosticSink()
        toks = tokenize("12٣4", sink=sink)
        assert [(t.kind, t.value, t.col) for t in toks[:-1]] == [
            (INT_LIT, "12", 1),
            (INT_LIT, "4", 4),
        ]
        assert [d.code for d in sink.diagnostics] == ["JNS-LEX-001"]

    def test_non_ascii_identifier_is_an_unexpected_character(self):
        from repro import check_source, compile_program

        with pytest.raises(LexError) as info:
            compile_program(self.FOLDED)
        assert info.value.code == "JNS-LEX-001"
        assert check_source(self.FOLDED).diagnostics[0].code == "JNS-LEX-001"
        with pytest.raises(LexError):
            tokenize("café")

    def test_strings_and_comments_keep_any_character(self):
        from repro import run_program

        text = "ﬁ é ²"
        source = (
            "class Main { int main() {\n"
            f"  // {text}\n"
            f"  /* {text} */\n"
            f'  Sys.print("{text}");\n'
            "  return 1;\n"
            "} }"
        )
        assert [t.value for t in tokenize(source) if t.kind == STRING_LIT] == [text]
        walker = run_program(source, backend="walker")
        assert walker == (1, [text])
        assert run_program(source, backend="codegen") == walker
