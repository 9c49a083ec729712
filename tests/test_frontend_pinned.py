"""Pinned front-end output: the token stream and the AST of every program
the repository ships, and the diagnostics of inputs that exercise lexer
and parser recovery, are compared against digests recorded from the
earlier character-loop lexer and operator-ladder parser.  Any change to
tokens, positions, tree shape or diagnostic text fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import check_source
from repro.programs import corona, jolden, lambdac, trees
from repro.source.lexer import tokenize
from repro.source.parser import parse_program

from conftest import FIG123_SOURCE

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _sources():
    sources = {f"jolden.{m.NAME}": m.SOURCE for m in jolden.ALL}
    sources["trees"] = trees.SOURCE
    sources["lambdac"] = lambdac.SOURCE
    sources["corona"] = corona.SOURCE
    for path in sorted(EXAMPLES.glob("*.jns")):
        sources[f"examples/{path.name}"] = path.read_text()
    sources["fig123"] = FIG123_SOURCE
    sources["operator-mix"] = _operator_chain(120)
    return sources


#: every binary operator, ``instanceof`` and the conditional
_OPERATORS = (
    "*", "+", "<", "==", "&&", "||", "-", "/", "%", ">=", "!=", "<=", ">",
    "instanceof Main", "?",
)


def _operator_chain(count: int, operators=_OPERATORS) -> str:
    """A ``Main`` whose ``main`` assigns one long expression mixing every
    precedence level, so the shape (and the nesting depth) of binary
    chains is pinned, not just the programs' common cases."""
    parts = ["a"]
    for i in range(count):
        op = operators[(i * 7 + i // 5) % len(operators)]
        operand = ("b", "-c", "(d)", "e.f", "g[1]", "!h", "(int) k", "2.5")[i % 8]
        if op.startswith("instanceof"):
            parts.append(f"{op} && {operand}")
        elif op == "?":
            parts.append(f"? {operand} : {operand}")
        else:
            parts.append(f"{op} {operand}")
    return "class Main { int main() { x += " + " ".join(parts) + "; } }"


SOURCES = _sources()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def token_digest(source: str) -> str:
    return _sha(repr([(t.kind, t.value, t.line, t.col) for t in tokenize(source)]))


def ast_digest(source: str) -> str:
    return _sha(repr(parse_program(source)))


#: name -> (token-stream digest, AST digest)
PINNED = {
    'corona': (
        'a2e62cdfd181642d795d1b67f86e8700ee7893c990d216101c213c9be9533091',
        'c28fc796b16ca1752fb11c898a0a026a7ec82b886223cfae8a1e812a2a9d78c0',
    ),
    'examples/lambda_pair.jns': (
        '761b898f1f8d7be0e171750b2d44f7b72289a3cd2370e1e00816473fe0a1fde1',
        'e26f69afe2cac32f94448ccb877bf7f6c8e51e0b187a21b8183ad291e7b07393',
    ),
    'examples/lambda_pair_bad.jns': (
        '31305853e8ba641a895690dd696400d61cf0fda74755a27bc62ba8d81d3dfc10',
        'd1a2f872ae92dd222e9c22064d4406839d7dcfd88749a51c7b06c750efc713d0',
    ),
    'fig123': (
        '20fa47f49e745228b8eab6fb92870a3f5ecf881ddb0fd31e99860824bca79e82',
        '86a5224215b605f89b426fd98d7cd4535637eac65ae7a21e8664e4c5460db757',
    ),
    'jolden.bh': (
        '41573609939157d172256ec5d20d9c4c4394787f60f97dc907e1685765c21ef0',
        'f995e988ba32a19b912fd1459a4573572c7c4fc1f335085eecb44fbe82d0f5da',
    ),
    'jolden.bisort': (
        'b365a38341a1481e20eb8fedfc6ab74aa0b981b6dce5c853782739b497fc7f5c',
        'b859a94395a86f67fdf3d3bb63896436a42c93469b588fbf1f5d1a6bba177bfd',
    ),
    'jolden.em3d': (
        '6d18e4592111ceb619be4529eb87c2c16db66c81af57fa673b385d6e6040f5ed',
        '989da52007f7de2741e98dc93046cdf9332931928b5f3ea6a22a59546c3439c2',
    ),
    'jolden.health': (
        '520f29d1185f4ef8eb13af3a546af0e35ec930cadc5683cffb552ac575035351',
        '80c15af0613f7612f8f81f1daeda9730687dece0cda66f9005127a18412d0e3d',
    ),
    'jolden.mst': (
        'e54d78ff8d7c6012f3fab5c0d3953ef48dfa22b09c5398150361a228478a3622',
        '11117c753cdbd63a9190835afe15cb0208b6285b77478e014f1bfaf2ff014e82',
    ),
    'jolden.perimeter': (
        '57249f2e4031c7eea25dbd1a3ad94e60640ffdd23486ac4328beab5ee4267505',
        'e7e35df7f26e8401a8f6f4174e53ec1937a8e827b76c8d0db6e3fef3d257526f',
    ),
    'jolden.power': (
        'd2f6e3894cc07e75935662562cd6603f44c86ffef4b0894b9f1f931ca3e9e51d',
        '91ce9774a9c1e8729145f9555d71529b7a236627f674709f498770ce9cdb4f33',
    ),
    'jolden.treeadd': (
        '9bbeaa44296fe3cc1f1f835a90b8cfcf873eabd3b713301bb8ad89c387b673d9',
        '5eae77e0da776e762db5fe99d903cc7b28ed5d60c1045e832940a0d1cdf57364',
    ),
    'jolden.tsp': (
        '442074d3a71a24b6728c6d13988fce4475c0ac0464bb1a16d044437a1ab6aac5',
        '104313aeb469c2dd5bb5528b76ac432e91ac6be906da8778f345a347ed1c2f62',
    ),
    'jolden.voronoi': (
        '7aab5af7a1316596d9e7d25aa18738020e0c290bb986cc0f7cf1cdf2edbc58ce',
        'ee9a5326607f46ace1c0799dc2824308047a304578976f12680c4578357e1a1d',
    ),
    'lambdac': (
        'a733835ec85fc2ae58a75ea88012134b3ce377522175f70c6574015d3fca8a44',
        'f1365d0d25c299ba2f45a92c62d52b9aaf32fbe5280180afe89f46cf5f51e7d7',
    ),
    'operator-mix': (
        'c6a76dc94e5770686a8acd753a21f6869fb07d535d33a92868df6955e88d9e9f',
        '721ef04cd03f90f03e18394df86888d0a8cbbb28abb23b5a4ab6094928d1e9e4',
    ),
    'trees': (
        '45ac3ca9fb1d096a377f4723531d3f3837f4e2e95a102fa69039c02f584ca37e',
        '646bf919cf453d618079d4d1390a3c305cda1fdce7ba241c0fb6a019e7cdbc22',
    ),
}


def test_every_source_is_pinned():
    assert sorted(PINNED) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_token_stream_is_pinned(name):
    assert token_digest(SOURCES[name]) == PINNED[name][0]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_ast_is_pinned(name):
    assert ast_digest(SOURCES[name]) == PINNED[name][1]


#: Inputs whose lexical error is followed by a syntax error, so recovery
#: has to go on past each one.  An unterminated string or block comment
#: runs to the end of the input, so those two sit last.
RECOVERY_SOURCES = {
    "lex-001-004-003": (
        "class A { int f() { return 1 § 2; } }\n"
        'class B { String g() { return "broken\n; } }\n'
        "class C { int h() { return 1 +; } }\n"
        "/* never closed"
    ),
    "lex-002": (
        "class A { int f() { return (1; } }\n"
        'class B { String g() { return "to the end'
    ),
    # the nesting budget must fire at the same operator token
    "plus-chain-over-budget": (
        "class Main { int main() { return 1" + " + 1" * 260 + "; } }"
    ),
    "operator-mix-over-budget": _operator_chain(6000, _OPERATORS[:-1]),
}

#: name -> the diagnostics of ``check_source(...).to_json()`` (all errors)
PINNED_JSON = {
    'examples/lambda_pair_bad.jns': [
        {"code": "JNS-TYPE-013", "severity": "error",
         "message": "field 'e' has unshared interpreted types (pair!.Exp vs base!.Exp) and must be masked in the shares clause (Section 3.1)",
         "span": {"line": 11, "col": 15, "end_line": 11, "end_col": 15}, "where": "pair.Abs"},
    ],
    'lex-001-004-003': [
        {"code": "JNS-LEX-001", "severity": "error",
         "message": "unexpected character '\u00a7' at 1:30",
         "span": {"line": 1, "col": 30, "end_line": 1, "end_col": 30}},
        {"code": "JNS-LEX-004", "severity": "error",
         "message": "newline in string literal at 2:38",
         "span": {"line": 2, "col": 38, "end_line": 2, "end_col": 38}},
        {"code": "JNS-LEX-003", "severity": "error",
         "message": "unterminated block comment at 5:1",
         "span": {"line": 5, "col": 1, "end_line": 5, "end_col": 1}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected ';' at 1:32 (got '2')",
         "span": {"line": 1, "col": 32, "end_line": 1, "end_col": 32}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected 'class' at 1:37 (got '}')",
         "span": {"line": 1, "col": 37, "end_line": 1, "end_col": 37}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected expression at 4:31 (got ';')",
         "span": {"line": 4, "col": 31, "end_line": 4, "end_col": 31}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected 'class' at 4:35 (got '}')",
         "span": {"line": 4, "col": 35, "end_line": 4, "end_col": 35}},
    ],
    'lex-002': [
        {"code": "JNS-LEX-002", "severity": "error",
         "message": "unterminated string literal at 2:31",
         "span": {"line": 2, "col": 31, "end_line": 2, "end_col": 31}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected ')' at 1:30 (got ';')",
         "span": {"line": 1, "col": 30, "end_line": 1, "end_col": 30}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected 'class' at 1:34 (got '}')",
         "span": {"line": 1, "col": 34, "end_line": 1, "end_col": 34}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected ';' at 2:42 (got '')",
         "span": {"line": 2, "col": 42, "end_line": 2, "end_col": 42}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected '}' at 2:42 (got '')",
         "span": {"line": 2, "col": 42, "end_line": 2, "end_col": 42}},
    ],
    'operator-mix-over-budget': [
        {"code": "JNS-PARSE-005", "severity": "error",
         "message": "nesting deeper than 250 levels at 1:31287 (got 'd')",
         "span": {"line": 1, "col": 31287, "end_line": 1, "end_col": 31287}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected 'class' at 1:44997 (got '}')",
         "span": {"line": 1, "col": 44997, "end_line": 1, "end_col": 44997}},
    ],
    'plus-chain-over-budget': [
        {"code": "JNS-PARSE-005", "severity": "error",
         "message": "nesting deeper than 250 levels at 1:1028 (got '+')",
         "span": {"line": 1, "col": 1028, "end_line": 1, "end_col": 1028}},
        {"code": "JNS-PARSE-001", "severity": "error",
         "message": "expected 'class' at 1:1079 (got '}')",
         "span": {"line": 1, "col": 1079, "end_line": 1, "end_col": 1079}},
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_diagnostics_are_pinned(name):
    if name in RECOVERY_SOURCES:
        source = RECOVERY_SOURCES[name]
    else:
        source = SOURCES[name]
    expected = {"ok": False, "diagnostics": PINNED_JSON[name]}
    assert json.loads(check_source(source).to_json()) == expected
