"""Pretty-printer for J&s surface syntax.

Produces parseable source from an AST (surface type annotations or
already-resolved types).  Used by tooling, error reporting, and the
parse/print round-trip property tests: ``parse(unparse(parse(s)))`` is
structurally identical to ``parse(s)``.
"""

from __future__ import annotations

from typing import List

from ..lang import types as RT
from . import ast

_INDENT = "  "

# operator precedence, loosest first (mirrors the parser)
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_LEVEL = 7
_POSTFIX_LEVEL = 8


def type_to_src(t) -> str:
    """Render a type annotation (surface or resolved) as source text."""
    if isinstance(t, ast.TName):
        return ".".join(t.parts)
    if isinstance(t, ast.TPrim):
        return t.name
    if isinstance(t, ast.TDep):
        return ".".join(t.path) + ".class"
    if isinstance(t, ast.TPrefix):
        return f"{type_to_src(t.family)}[{type_to_src(t.index)}]"
    if isinstance(t, ast.TExact):
        return type_to_src(t.inner) + "!"
    if isinstance(t, ast.TMask):
        return type_to_src(t.inner) + "".join("\\" + f for f in t.fields)
    if isinstance(t, ast.TNested):
        return f"{type_to_src(t.outer)}.{t.name}"
    if isinstance(t, ast.TIsect):
        return " & ".join(type_to_src(p) for p in t.parts)
    if isinstance(t, ast.TArray):
        return type_to_src(t.elem) + "[]"
    # resolved types
    if isinstance(t, RT.PrimType):
        return t.name
    if isinstance(t, RT.ClassType):
        return repr(t)
    if isinstance(t, RT.MaskedType):
        return type_to_src(t.base) + "".join("\\" + f for f in sorted(t.masks))
    if isinstance(t, RT.DepType):
        return ".".join(t.path) + ".class"
    if isinstance(t, RT.PrefixType):
        return ".".join(t.family) + f"[{type_to_src(t.index)}]"
    if isinstance(t, RT.NestedType):
        return f"{type_to_src(t.outer)}.{t.name}"
    if isinstance(t, RT.ExactType):
        return type_to_src(t.inner) + "!"
    if isinstance(t, RT.IsectType):
        return " & ".join(type_to_src(p) for p in t.parts)
    if isinstance(t, RT.ArrayType):
        return type_to_src(t.elem) + "[]"
    raise TypeError(f"cannot unparse type {t!r}")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    return "".join(out)


def expr_to_src(e: ast.Expr, level: int = 0) -> str:
    """Render an expression; ``level`` is the minimum precedence the
    context requires (parenthesize below it)."""
    text, my_level = _expr(e)
    if my_level < level:
        return f"({text})"
    return text


def _expr(e: ast.Expr):
    if isinstance(e, ast.Lit):
        if e.kind == "String":
            return f'"{_escape(e.value)}"', _POSTFIX_LEVEL
        if e.kind == "null":
            return "null", _POSTFIX_LEVEL
        if e.kind == "boolean":
            return ("true" if e.value else "false"), _POSTFIX_LEVEL
        if e.kind == "double":
            text = repr(float(e.value))
            return text, _POSTFIX_LEVEL
        return str(e.value), _POSTFIX_LEVEL
    if isinstance(e, ast.This):
        return "this", _POSTFIX_LEVEL
    if isinstance(e, ast.Var):
        return e.name, _POSTFIX_LEVEL
    if isinstance(e, ast.FieldGet):
        return f"{expr_to_src(e.obj, _POSTFIX_LEVEL)}.{e.name}", _POSTFIX_LEVEL
    if isinstance(e, ast.Call):
        args = ", ".join(map(expr_to_src, e.args))
        recv = ""
        if e.obj is not None and not isinstance(e.obj, ast.This):
            recv = expr_to_src(e.obj, _POSTFIX_LEVEL) + "."
        elif isinstance(e.obj, ast.This):
            recv = "this."
        return f"{recv}{e.name}({args})", _POSTFIX_LEVEL
    if isinstance(e, ast.SysCall):
        constants = ("PI", "E", "MAX_INT", "MIN_INT", "MAX_DOUBLE")
        if not e.args and e.name in constants:
            return f"Sys.{e.name}", _POSTFIX_LEVEL
        args = ", ".join(map(expr_to_src, e.args))
        return f"Sys.{e.name}({args})", _POSTFIX_LEVEL
    if isinstance(e, ast.NewObj):
        args = ", ".join(map(expr_to_src, e.args))
        return f"new {type_to_src(e.type)}({args})", _POSTFIX_LEVEL
    if isinstance(e, ast.NewArray):
        elem = e.elem_type
        dims = ""
        while isinstance(elem, (ast.TArray, RT.ArrayType)):
            elem = elem.elem
            dims += "[]"
        return (
            f"new {type_to_src(elem)}[{expr_to_src(e.length)}]{dims}",
            _POSTFIX_LEVEL,
        )
    if isinstance(e, ast.Index):
        return (
            f"{expr_to_src(e.arr, _POSTFIX_LEVEL)}[{expr_to_src(e.idx)}]",
            _POSTFIX_LEVEL,
        )
    if isinstance(e, ast.Unary):
        return f"{e.op}{expr_to_src(e.operand, _UNARY_LEVEL)}", _UNARY_LEVEL
    if isinstance(e, ast.Binary):
        prec = _PRECEDENCE[e.op]
        left = expr_to_src(e.left, prec)
        right = expr_to_src(e.right, prec + 1)
        return f"{left} {e.op} {right}", prec
    if isinstance(e, ast.Cond):
        return (
            f"{expr_to_src(e.cond, 1)} ? {expr_to_src(e.then)} : "
            f"{expr_to_src(e.els)}",
            0,
        )
    if isinstance(e, ast.Cast):
        return f"({type_to_src(e.type)}){expr_to_src(e.expr, _UNARY_LEVEL)}", _UNARY_LEVEL
    if isinstance(e, ast.ViewChange):
        return (
            f"(view {type_to_src(e.type)}){expr_to_src(e.expr, _UNARY_LEVEL)}",
            _UNARY_LEVEL,
        )
    if isinstance(e, ast.InstanceOf):
        return (
            f"{expr_to_src(e.expr, 4)} instanceof {type_to_src(e.type)}",
            4,
        )
    if isinstance(e, ast.Assign):
        return (
            f"{expr_to_src(e.target, _POSTFIX_LEVEL)} {e.op} {expr_to_src(e.value)}",
            0,
        )
    raise TypeError(f"cannot unparse expression {e!r}")


def stmt_to_src(s: ast.Stmt, indent: int = 0) -> List[str]:
    pad = _INDENT * indent
    if isinstance(s, ast.Block):
        lines = [pad + "{"]
        for inner in s.stmts:
            lines.extend(stmt_to_src(inner, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, ast.LocalDecl):
        prefix = "final " if s.final else ""
        init = f" = {expr_to_src(s.init)}" if s.init is not None else ""
        return [f"{pad}{prefix}{type_to_src(s.type)} {s.name}{init};"]
    if isinstance(s, ast.ExprStmt):
        return [f"{pad}{expr_to_src(s.expr)};"]
    if isinstance(s, ast.If):
        lines = [f"{pad}if ({expr_to_src(s.cond)})"]
        lines.extend(_branch(s.then, indent))
        if s.els is not None:
            lines.append(pad + "else")
            lines.extend(_branch(s.els, indent))
        return lines
    if isinstance(s, ast.While):
        return [f"{pad}while ({expr_to_src(s.cond)})"] + _branch(s.body, indent)
    if isinstance(s, ast.For):
        init = "" if s.init is None else stmt_to_src(s.init)[0].rstrip(";") + ";"
        init = init.strip()
        if not init:
            init = ";"
        cond = expr_to_src(s.cond) if s.cond is not None else ""
        update = expr_to_src(s.update) if s.update is not None else ""
        return [f"{pad}for ({init} {cond}; {update})"] + _branch(s.body, indent)
    if isinstance(s, ast.Return):
        if s.value is None:
            return [pad + "return;"]
        return [f"{pad}return {expr_to_src(s.value)};"]
    if isinstance(s, ast.Break):
        return [pad + "break;"]
    if isinstance(s, ast.Continue):
        return [pad + "continue;"]
    if isinstance(s, ast.Empty):
        return [pad + ";"]
    raise TypeError(f"cannot unparse statement {s!r}")


def _branch(s: ast.Stmt, indent: int) -> List[str]:
    if isinstance(s, ast.Block):
        return stmt_to_src(s, indent)
    return stmt_to_src(s, indent + 1)


def member_to_src(member, indent: int) -> List[str]:
    pad = _INDENT * indent
    if isinstance(member, ast.ClassDecl):
        return class_to_src(member, indent)
    if isinstance(member, ast.FieldDecl):
        prefix = "final " if member.final else ""
        init = f" = {expr_to_src(member.init)}" if member.init is not None else ""
        return [f"{pad}{prefix}{type_to_src(member.type)} {member.name}{init};"]
    if isinstance(member, ast.MethodDecl):
        prefix = "abstract " if member.abstract else ""
        params = ", ".join(f"{type_to_src(p.type)} {p.name}" for p in member.params)
        head = f"{pad}{prefix}{type_to_src(member.ret_type)} {member.name}({params})"
        if member.constraints:
            clauses = ", ".join(
                f"{type_to_src(c.left)} = {type_to_src(c.right)}"
                for c in member.constraints
            )
            head += f" sharing {clauses}"
        if member.body is None:
            return [head + ";"]
        body = stmt_to_src(member.body, indent)
        body[0] = head + " {"
        return body
    if isinstance(member, ast.CtorDecl):
        params = ", ".join(f"{type_to_src(p.type)} {p.name}" for p in member.params)
        body = stmt_to_src(member.body, indent)
        body[0] = f"{pad}{member.name}({params}) " + "{"
        return body
    raise TypeError(f"cannot unparse member {member!r}")


def class_to_src(decl: ast.ClassDecl, indent: int = 0) -> List[str]:
    pad = _INDENT * indent
    head = pad + ("abstract " if decl.abstract else "") + f"class {decl.name}"
    if decl.extends:
        head += " extends " + " & ".join(type_to_src(t) for t in decl.extends)
    if decl.shares is not None:
        head += " shares " + type_to_src(decl.shares)
    if decl.adapts is not None:
        head += " adapts " + type_to_src(decl.adapts)
    lines = [head + " {"]
    for member in decl.members:
        lines.extend(member_to_src(member, indent + 1))
    lines.append(pad + "}")
    return lines


def unparse(unit: ast.CompilationUnit) -> str:
    """Render a whole compilation unit as J&s source."""
    lines: List[str] = []
    for decl in unit.classes:
        lines.extend(class_to_src(decl))
        lines.append("")
    return "\n".join(lines)
