"""Builders that emit Solidity source plus a matching compiler-shaped AST.

No compiler is assumed to exist in the test environment, so fixtures are
constructed here: each builder renders source text while assembling the AST
node for that text, keeping every node's src offset/length exact. The node
shapes mirror compiler standard-JSON output closely enough for the
production lowering code to treat the two interchangeably.

Expressions know their text up front (`text`) and position their node at an
absolute offset on demand (`node(off)`); statements and declarations write
themselves through a Writer that tracks the running offset.
"""

from __future__ import annotations


def _src(off: int, text: str) -> str:
    return f"{off}:{len(text)}:0"


class Writer:
    __slots__ = ("_parts", "pos")

    def __init__(self) -> None:
        self._parts: list[str] = []
        self.pos = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self.pos += len(text)

    def text(self) -> str:
        return "".join(self._parts)


# --- expressions -------------------------------------------------------------


class Expr:
    text: str

    def node(self, off: int) -> dict:
        raise NotImplementedError


class Lit(Expr):
    def __init__(self, value):
        self.text = str(value)
        self._kind = "number" if str(value).lstrip("-").isdigit() else "string"

    def node(self, off: int) -> dict:
        return {
            "nodeType": "Literal",
            "kind": self._kind,
            "value": self.text,
            "src": _src(off, self.text),
        }


class Id(Expr):
    def __init__(self, name: str):
        self.name = name
        self.text = name

    def node(self, off: int) -> dict:
        return {"nodeType": "Identifier", "name": self.name, "src": _src(off, self.text)}


class Member(Expr):
    def __init__(self, base: Expr, member: str):
        self.base = base
        self.member = member
        self.text = f"{base.text}.{member}"

    def node(self, off: int) -> dict:
        return {
            "nodeType": "MemberAccess",
            "expression": self.base.node(off),
            "memberName": self.member,
            "src": _src(off, self.text),
        }


class Index(Expr):
    def __init__(self, base: Expr, index: Expr):
        self.base = base
        self.index = index
        self.text = f"{base.text}[{index.text}]"

    def node(self, off: int) -> dict:
        return {
            "nodeType": "IndexAccess",
            "baseExpression": self.base.node(off),
            "indexExpression": self.index.node(off + len(self.base.text) + 1),
            "src": _src(off, self.text),
        }


class Bin(Expr):
    def __init__(self, left: Expr, op: str, right: Expr):
        self.left = left
        self.op = op
        self.right = right
        self.text = f"{left.text} {op} {right.text}"

    def node(self, off: int) -> dict:
        right_off = off + len(self.left.text) + len(self.op) + 2
        return {
            "nodeType": "BinaryOperation",
            "leftExpression": self.left.node(off),
            "operator": self.op,
            "rightExpression": self.right.node(right_off),
            "src": _src(off, self.text),
        }


class Un(Expr):
    def __init__(self, op: str, sub: Expr, prefix: bool = True):
        self.op = op
        self.sub = sub
        self.prefix = prefix
        self.text = f"{op}{sub.text}" if prefix else f"{sub.text}{op}"

    def node(self, off: int) -> dict:
        sub_off = off + len(self.op) if self.prefix else off
        return {
            "nodeType": "UnaryOperation",
            "operator": self.op,
            "prefix": self.prefix,
            "subExpression": self.sub.node(sub_off),
            "src": _src(off, self.text),
        }


class Call(Expr):
    def __init__(self, callee: Expr, args: list[Expr] | tuple[Expr, ...] = ()):
        self.callee = callee
        self.args = list(args)
        self.text = f"{callee.text}({', '.join(a.text for a in self.args)})"

    def node(self, off: int) -> dict:
        arg_nodes = []
        cursor = off + len(self.callee.text) + 1
        for i, a in enumerate(self.args):
            if i:
                cursor += 2
            arg_nodes.append(a.node(cursor))
            cursor += len(a.text)
        return {
            "nodeType": "FunctionCall",
            "kind": "functionCall",
            "expression": self.callee.node(off),
            "arguments": arg_nodes,
            "src": _src(off, self.text),
        }


class VOpts(Expr):
    """Call options clause: callee{value: v}."""

    def __init__(self, callee: Expr, value: Expr):
        self.callee = callee
        self.value = value
        self.text = f"{callee.text}{{value: {value.text}}}"

    def node(self, off: int) -> dict:
        value_off = off + len(self.callee.text) + len("{value: ")
        return {
            "nodeType": "FunctionCallOptions",
            "expression": self.callee.node(off),
            "names": ["value"],
            "options": [self.value.node(value_off)],
            "src": _src(off, self.text),
        }


class Tuple_(Expr):
    def __init__(self, components: list[Expr]):
        self.components = components
        self.text = f"({', '.join(c.text for c in components)})"

    def node(self, off: int) -> dict:
        nodes = []
        cursor = off + 1
        for i, c in enumerate(self.components):
            if i:
                cursor += 2
            nodes.append(c.node(cursor))
            cursor += len(c.text)
        return {
            "nodeType": "TupleExpression",
            "components": nodes,
            "src": _src(off, self.text),
        }


# --- statements --------------------------------------------------------------


class Stmt:
    def emit(self, w: Writer, indent: int) -> dict:
        raise NotImplementedError


class SDecl(Stmt):
    def __init__(self, type_text: str, name: str, init: Expr | None = None):
        self.type_text = type_text
        self.name = name
        self.init = init

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        node = self.inline(w)
        w.write(";\n")
        return node

    def inline(self, w: Writer) -> dict:
        """Write the declaration without indent or `;`, as a `for` header
        holds it."""
        start = w.pos
        decl_text = f"{self.type_text} {self.name}"
        w.write(decl_text)
        decl_node = {
            "nodeType": "VariableDeclaration",
            "name": self.name,
            "stateVariable": False,
            "storageLocation": "default",
            "typeName": {
                "nodeType": "ElementaryTypeName",
                "name": self.type_text.split()[0],
                "src": _src(start, self.type_text),
            },
            "src": _src(start, decl_text),
        }
        init_node = None
        if self.init is not None:
            w.write(" = ")
            init_node = self.init.node(w.pos)
            w.write(self.init.text)
        length = w.pos - start
        return {
            "nodeType": "VariableDeclarationStatement",
            "declarations": [decl_node],
            "initialValue": init_node,
            "src": f"{start}:{length}:0",
        }


class SAssign(Stmt):
    def __init__(self, lhs: Expr, op: str, rhs: Expr):
        self.lhs = lhs
        self.op = op
        self.rhs = rhs

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        lhs_node = self.lhs.node(w.pos)
        w.write(self.lhs.text)
        w.write(f" {self.op} ")
        rhs_node = self.rhs.node(w.pos)
        w.write(self.rhs.text)
        length = w.pos - start
        w.write(";\n")
        return {
            "nodeType": "ExpressionStatement",
            "expression": {
                "nodeType": "Assignment",
                "operator": self.op,
                "leftHandSide": lhs_node,
                "rightHandSide": rhs_node,
                "src": f"{start}:{length}:0",
            },
            "src": f"{start}:{length}:0",
        }


class SExpr(Stmt):
    def __init__(self, expr: Expr):
        self.expr = expr

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        node = self.expr.node(w.pos)
        w.write(self.expr.text)
        length = w.pos - start
        w.write(";\n")
        return {
            "nodeType": "ExpressionStatement",
            "expression": node,
            "src": f"{start}:{length}:0",
        }


class SReturn(Stmt):
    def __init__(self, expr: Expr | None = None):
        self.expr = expr

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write("return")
        node = None
        if self.expr is not None:
            w.write(" ")
            node = self.expr.node(w.pos)
            w.write(self.expr.text)
        length = w.pos - start
        w.write(";\n")
        return {"nodeType": "Return", "expression": node, "src": f"{start}:{length}:0"}


class SEmit(Stmt):
    keyword, node_type, call_key = "emit", "EmitStatement", "eventCall"

    def __init__(self, event: str, args: list[Expr] | tuple[Expr, ...] = ()):
        self.call = Call(Id(event), list(args))

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(f"{self.keyword} ")
        call_node = self.call.node(w.pos)
        w.write(self.call.text)
        length = w.pos - start
        w.write(";\n")
        return {
            "nodeType": self.node_type,
            self.call_key: call_node,
            "src": f"{start}:{length}:0",
        }


class SRevert(SEmit):
    """`revert Err(args);` with a custom error."""

    keyword, node_type, call_key = "revert", "RevertStatement", "errorCall"


class SWhile(Stmt):
    def __init__(self, cond: Expr, body: list[Stmt]):
        self.cond = cond
        self.body = body

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write("while (")
        cond_node = self.cond.node(w.pos)
        w.write(self.cond.text)
        w.write(") {\n")
        block_start = start
        body_nodes = [s.emit(w, indent + 4) for s in self.body]
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "WhileStatement",
            "condition": cond_node,
            "body": {
                "nodeType": "Block",
                "statements": body_nodes,
                "src": f"{block_start}:{length}:0",
            },
            "src": f"{start}:{length}:0",
        }


class SFor(Stmt):
    """`for (init; cond; step) { body }`, where `init` is a declaration and
    `step` an expression, each optional."""

    def __init__(self, init: SDecl | None, cond: Expr, step: Expr | None, body: list[Stmt]):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write("for (")
        init_node = self.init.inline(w) if self.init is not None else None
        w.write("; ")
        cond_node = self.cond.node(w.pos)
        w.write(self.cond.text)
        w.write("; ")
        step_node = None
        if self.step is not None:
            step_node = {
                "nodeType": "ExpressionStatement",
                "expression": self.step.node(w.pos),
                "src": _src(w.pos, self.step.text),
            }
            w.write(self.step.text)
        w.write(") {\n")
        body_nodes = [s.emit(w, indent + 4) for s in self.body]
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "ForStatement",
            "initializationExpression": init_node,
            "condition": cond_node,
            "loopExpression": step_node,
            "body": {
                "nodeType": "Block",
                "statements": body_nodes,
                "src": f"{start}:{length}:0",
            },
            "src": f"{start}:{length}:0",
        }


class SIf(Stmt):
    def __init__(self, cond: Expr, then: list[Stmt], els: list[Stmt] | None = None):
        self.cond = cond
        self.then = then
        self.els = els

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write("if (")
        cond_node = self.cond.node(w.pos)
        w.write(self.cond.text)
        w.write(") {\n")
        then_nodes = [s.emit(w, indent + 4) for s in self.then]
        w.write(" " * indent + "}")
        true_body = {
            "nodeType": "Block",
            "statements": then_nodes,
            "src": f"{start}:{w.pos - start}:0",
        }
        false_body = None
        if self.els is not None:
            w.write(" else {\n")
            else_nodes = [s.emit(w, indent + 4) for s in self.els]
            w.write(" " * indent + "}")
            false_body = {
                "nodeType": "Block",
                "statements": else_nodes,
                "src": f"{start}:{w.pos - start}:0",
            }
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "IfStatement",
            "condition": cond_node,
            "trueBody": true_body,
            "falseBody": false_body,
            "src": f"{start}:{length}:0",
        }


class SPlaceholder(Stmt):
    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write("_")
        length = w.pos - start
        w.write(";\n")
        return {"nodeType": "PlaceholderStatement", "src": f"{start}:{length}:0"}


class SOpaque(Stmt):
    """A statement with an unknown node kind, to exercise opaque lowering."""

    def __init__(self, text: str, node_type: str = "MysteryStatement"):
        self.raw = text
        self.node_type = node_type

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(self.raw)
        length = w.pos - start
        w.write("\n")
        return {"nodeType": self.node_type, "src": f"{start}:{length}:0"}


class SAsm(Stmt):
    """Inline assembly block of the text `inner`, carrying `yul` (a
    `YulBlock`, see the `yul_*` helpers) as its Yul AST when given, as
    solc does from 0.6.0 on. Yul nodes carry no spans."""

    def __init__(self, inner: str, yul: dict | None = None):
        self.inner = inner
        self.yul = yul

    def emit(self, w: Writer, indent: int) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(f"assembly {{ {self.inner} }}")
        length = w.pos - start
        w.write("\n")
        node = {"nodeType": "InlineAssembly", "src": f"{start}:{length}:0"}
        if self.yul is not None:
            node["AST"] = self.yul
        return node


def yul_id(name: str) -> dict:
    return {"nodeType": "YulIdentifier", "name": name}


def yul_lit(value: str, kind: str = "number") -> dict:
    return {"nodeType": "YulLiteral", "kind": kind, "value": value, "type": ""}


def yul_call(name: str, *args: dict) -> dict:
    return {"nodeType": "YulFunctionCall", "functionName": yul_id(name), "arguments": list(args)}


def yul_let(name: str, value: dict) -> dict:
    typed = {"nodeType": "YulTypedName", "name": name, "type": ""}
    return {"nodeType": "YulVariableDeclaration", "variables": [typed], "value": value}


def yul_assign(name: str, value: dict) -> dict:
    return {"nodeType": "YulAssignment", "variableNames": [yul_id(name)], "value": value}


def yul_block(*statements: dict) -> dict:
    """A `YulBlock` of `statements`, a call among them as an expression
    statement."""
    stmts = [
        {"nodeType": "YulExpressionStatement", "expression": s}
        if s["nodeType"] == "YulFunctionCall" else s
        for s in statements
    ]
    return {"nodeType": "YulBlock", "statements": stmts}


# --- contract members ----------------------------------------------------------


class StateVar:
    def __init__(
        self, type_text: str, name: str, visibility: str = "public", value: Expr | None = None
    ):
        self.type_text = type_text
        self.name = name
        self.visibility = visibility
        self.value = value

    def emit(self, w: Writer, indent: int, contract_name: str) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(f"{self.type_text} {self.visibility} {self.name}")
        value_node = None
        if self.value is not None:
            w.write(" = ")
            value_node = self.value.node(w.pos)
            w.write(self.value.text)
        length = w.pos - start
        w.write(";\n")
        return {
            "nodeType": "VariableDeclaration",
            "name": self.name,
            "stateVariable": True,
            "visibility": self.visibility,
            "value": value_node,
            "typeName": {
                "nodeType": "ElementaryTypeName",
                "name": self.type_text.split("(")[0],
                "src": _src(start, self.type_text),
            },
            "src": f"{start}:{length}:0",
        }


class EventDef:
    def __init__(self, name: str, params: list[tuple[str, str]] = ()):
        self.name = name
        self.params = list(params)

    def emit(self, w: Writer, indent: int, contract_name: str) -> dict:
        w.write(" " * indent)
        start = w.pos
        plist = ", ".join(f"{t} {n}" for t, n in self.params)
        w.write(f"event {self.name}({plist})")
        length = w.pos - start
        w.write(";\n")
        return {
            "nodeType": "EventDefinition",
            "name": self.name,
            "parameters": {"nodeType": "ParameterList", "parameters": []},
            "src": f"{start}:{length}:0",
        }


class StructDef:
    def __init__(self, name: str, fields: list[tuple[str, str]]):
        self.name = name
        self.fields = list(fields)

    def emit(self, w: Writer, indent: int, contract_name: str) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(f"struct {self.name} {{\n")
        members = []
        for t, n in self.fields:
            w.write(" " * (indent + 4))
            f_start = w.pos
            f_text = f"{t} {n}"
            w.write(f_text)
            w.write(";\n")
            members.append(
                {
                    "nodeType": "VariableDeclaration",
                    "name": n,
                    "stateVariable": False,
                    "src": _src(f_start, f_text),
                }
            )
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "StructDefinition",
            "name": self.name,
            "members": members,
            "src": f"{start}:{length}:0",
        }


def _emit_params(w: Writer, params: list[tuple[str, str]]) -> list[dict]:
    nodes = []
    for i, (t, n) in enumerate(params):
        if i:
            w.write(", ")
        start = w.pos
        text = f"{t} {n}".rstrip()
        w.write(text)
        nodes.append(
            {
                "nodeType": "VariableDeclaration",
                "name": n,
                "stateVariable": False,
                "storageLocation": "default",
                "typeName": {
                    "nodeType": "ElementaryTypeName",
                    "name": t.split()[0],
                    "src": _src(start, t),
                },
                "src": _src(start, text),
            }
        )
    return nodes


class Fn:
    """A function definition.

    kind: "function", "constructor", "fallback", or "receive".
    legacy_ctor: render a 0.4-style constructor (function <Contract>()).
    modifiers: list of either "name" or ("name", [Expr args]).
    """

    def __init__(
        self,
        name: str,
        params: list[tuple[str, str]] = (),
        body: list[Stmt] = (),
        *,
        visibility: str = "public",
        mutability: str = "nonpayable",
        returns: list[tuple[str, str]] = (),
        modifiers: list = (),
        kind: str = "function",
        legacy_ctor: bool = False,
    ):
        self.name = name
        self.params = list(params)
        self.body = list(body)
        self.visibility = visibility
        self.mutability = mutability
        self.returns = list(returns)
        self.modifiers = list(modifiers)
        self.kind = kind
        self.legacy_ctor = legacy_ctor

    def emit(self, w: Writer, indent: int, contract_name: str) -> dict:
        w.write(" " * indent)
        start = w.pos
        if self.kind == "constructor" and not self.legacy_ctor:
            w.write("constructor")
            ast_name = ""
        elif self.kind == "constructor":
            w.write(f"function {contract_name}")
            ast_name = contract_name
        elif self.kind in ("fallback", "receive"):
            w.write(self.kind)
            ast_name = ""
        else:
            w.write(f"function {self.name}")
            ast_name = self.name
        w.write("(")
        param_nodes = _emit_params(w, self.params)
        w.write(")")
        w.write(f" {self.visibility}")
        if self.mutability != "nonpayable":
            w.write(f" {self.mutability}")

        modifier_nodes = []
        for m in self.modifiers:
            if isinstance(m, str):
                mname, margs = m, []
            else:
                mname, margs = m[0], list(m[1])
            w.write(f" {mname}")
            arg_nodes = []
            if margs:
                w.write("(")
                for i, a in enumerate(margs):
                    if i:
                        w.write(", ")
                    arg_nodes.append(a.node(w.pos))
                    w.write(a.text)
                w.write(")")
            modifier_nodes.append(
                {
                    "nodeType": "ModifierInvocation",
                    "modifierName": {"nodeType": "IdentifierPath", "name": mname},
                    "arguments": arg_nodes,
                }
            )

        return_nodes = []
        if self.returns:
            w.write(" returns (")
            return_nodes = _emit_params(w, self.returns)
            w.write(")")

        w.write(" {\n")
        body_nodes = [s.emit(w, indent + 4) for s in self.body]
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        node = {
            "nodeType": "FunctionDefinition",
            "name": ast_name,
            "kind": self.kind if not self.legacy_ctor else "function",
            "visibility": self.visibility,
            "stateMutability": self.mutability,
            "parameters": {"nodeType": "ParameterList", "parameters": param_nodes},
            "returnParameters": {"nodeType": "ParameterList", "parameters": return_nodes},
            "modifiers": modifier_nodes,
            "body": {
                "nodeType": "Block",
                "statements": body_nodes,
                "src": f"{start}:{length}:0",
            },
            "src": f"{start}:{length}:0",
        }
        if self.legacy_ctor:
            node["isConstructor"] = True
        return node


class Modifier:
    def __init__(self, name: str, params: list[tuple[str, str]] = (), body: list[Stmt] = ()):
        self.name = name
        self.params = list(params)
        self.body = list(body)

    def emit(self, w: Writer, indent: int, contract_name: str) -> dict:
        w.write(" " * indent)
        start = w.pos
        w.write(f"modifier {self.name}(")
        param_nodes = _emit_params(w, self.params)
        w.write(") {\n")
        body_nodes = [s.emit(w, indent + 4) for s in self.body]
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "ModifierDefinition",
            "name": self.name,
            "parameters": {"nodeType": "ParameterList", "parameters": param_nodes},
            "body": {
                "nodeType": "Block",
                "statements": body_nodes,
                "src": f"{start}:{length}:0",
            },
            "src": f"{start}:{length}:0",
        }


class Contract:
    def __init__(self, name: str, members: list, bases: list[str] = ()):
        self.name = name
        self.members = list(members)
        self.bases = list(bases)

    def emit(self, w: Writer, indent: int = 0) -> dict:
        w.write(" " * indent)
        start = w.pos
        head = f"contract {self.name}"
        if self.bases:
            head += f" is {', '.join(self.bases)}"
        w.write(head + " {\n")
        nodes = []
        for i, member in enumerate(self.members):
            if i:
                w.write("\n")
            nodes.append(member.emit(w, indent + 4, self.name))
        w.write(" " * indent + "}")
        length = w.pos - start
        w.write("\n")
        return {
            "nodeType": "ContractDefinition",
            "name": self.name,
            "contractKind": "contract",
            "baseContracts": [
                {
                    "nodeType": "InheritanceSpecifier",
                    "baseName": {"nodeType": "IdentifierPath", "name": b},
                }
                for b in self.bases
            ],
            "nodes": nodes,
            "src": f"{start}:{length}:0",
        }


def build_unit(
    name: str,
    contracts: list[Contract],
    pragma: str = "^0.8.19",
    compiler_version: str = "0.8.19",
) -> tuple[str, dict]:
    """Render contracts to (source_text, AST document)."""
    w = Writer()
    pragma_line = f"pragma solidity {pragma};"
    w.write(pragma_line)
    pragma_node = {
        "nodeType": "PragmaDirective",
        "literals": ["solidity", pragma],
        "src": _src(0, pragma_line),
    }
    w.write("\n\n")
    nodes = [pragma_node]
    for i, c in enumerate(contracts):
        if i:
            w.write("\n")
        nodes.append(c.emit(w, 0))
    source = w.text()
    ast = {
        "nodeType": "SourceUnit",
        "absolutePath": f"{name}.sol",
        "nodes": nodes,
        "src": f"0:{len(source)}:0",
    }
    doc = {
        "compiler": {"version": compiler_version},
        "sources": {f"{name}.sol": {"content": source, "ast": ast}},
    }
    return source, doc


def check_spans(source: str, node: object) -> list[str]:
    """Sanity-scan an AST: every Identifier/MemberAccess span must match its
    text. Returns a list of mismatch descriptions (empty when clean)."""
    problems: list[str] = []

    def visit(n: object) -> None:
        if isinstance(n, dict):
            nt = n.get("nodeType")
            src = n.get("src")
            if isinstance(src, str) and nt in ("Identifier", "MemberAccess", "Literal"):
                off, length = int(src.split(":")[0]), int(src.split(":")[1])
                snippet = source[off : off + length]
                if nt == "Identifier" and snippet != n.get("name"):
                    problems.append(f"Identifier {n.get('name')!r} vs {snippet!r}")
                if nt == "MemberAccess" and not snippet.endswith(n.get("memberName", "")):
                    problems.append(f"MemberAccess .{n.get('memberName')} vs {snippet!r}")
            for v in n.values():
                visit(v)
        elif isinstance(n, list):
            for item in n:
                visit(item)

    visit(node)
    return problems
