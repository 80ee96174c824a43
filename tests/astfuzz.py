"""Seeded generator of raw AST documents for lowering.

`unit(seed)` returns one AST document in the shape `ponzilens.load_ast`
takes: one to three contracts with inheritance, state variables, events,
modifiers and functions, all built as raw compiler-shaped JSON, not through
the `astgen` builders, so any node can be given any child. The same seed
always gives the same document.

The documents cover every expression and statement kind that lowering tells
apart, and every call form it classifies: builtins, casts, direct, member
and `this.`/`super.` calls, calls through variables, `push`/`pop`,
`send`/`transfer`, `new`, curried calls, value and gas options in braces and
as legacy `.value(v)`/`.gas(g)` chains in either order. Modifiers have
parameters, locals and `_;` at the top level, nested, repeated or missing.
Names are drawn from small pools that overlap between scopes, so locals,
parameters, modifier names and state variables shadow one another.

A few nodes are faulty: a child that should be an object is a scalar or a
list, a key is missing, a span is unreadable. After a document is built,
any field may be reshaped, rarely: a list becomes a scalar or an object
keyed by position, and an object becomes a scalar. Keys keep the builders'
order in some documents and are sorted, as the compiler writes them, in
others.
"""

from __future__ import annotations

import random

_STATE = ("s0", "s1", "s2", "pot", "v")
_LOCALS = ("l0", "l1", "pot", "f")
_PARAMS = ("p0", "p1", "v")
_MOD_PARAMS = ("mp0", "mp1", "v")
_MOD_LOCALS = ("ml0", "f")
_FUNCTIONS = ("fn0", "fn1", "fn2")
_MODIFIERS = ("m0", "m1", "m2")
_CONTRACTS = ("C0", "C1", "C2")
_ENV = ("msg", "tx", "block", "abi", "this", "super")
_BUILTINS = ("require", "assert", "keccak256", "payable", "address", "type", "revert")
_MEMBERS = ("f", "deposit", "balance", "length", "call", "delegatecall", "value", "gas")
_HOLES = (None, 7, "x", [], [1])
_SCALARS = (7, "x", True)
_RESHAPE = 0.002  # the chance that a field holding a list or an object is reshaped


def _uint() -> dict:
    return {"nodeType": "ElementaryTypeName", "name": "uint"}


def _path(name: str) -> dict:
    return {"nodeType": "IdentifierPath", "name": name}


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.text: list[str] = []
        self.pos = 0

    # --- helpers --------------------------------------------------------------

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def pick(self, items):
        return self.rng.choice(items)

    def src(self, node: dict) -> dict:
        """Give `node` a span over a fresh stretch of source text holding a
        few names, so textual scans of opaque nodes find something."""
        if self.chance(0.03):
            node["src"] = self.pick(("", "x:y", 5))
            return node
        words = [
            self.pick(_STATE + _LOCALS + _PARAMS + _MOD_PARAMS + _MOD_LOCALS + ("msg.value",))
            for _ in range(self.rng.randrange(1, 4))
        ]
        chunk = " ".join(words) + ";\n"
        node["src"] = f"{self.pos}:{len(chunk) - 2}:0"
        self.text.append(chunk)
        self.pos += len(chunk)
        return node

    def hole(self):
        return self.pick(_HOLES)

    def ident(self, name: str) -> dict:
        return self.src({"nodeType": "Identifier", "name": name})

    def member(self, base, name: str) -> dict:
        return self.src({"nodeType": "MemberAccess", "expression": base, "memberName": name})

    def call(self, head, args: list) -> dict:
        return self.src({"nodeType": "FunctionCall", "expression": head, "arguments": args})

    def options(self, head, names: list[str]) -> dict:
        opts = [self.expr(1) for _ in names]
        return self.src(
            {"nodeType": "FunctionCallOptions", "expression": head, "names": names,
             "options": opts}
        )

    # --- expressions ----------------------------------------------------------

    def name(self) -> str:
        pools = (_STATE, _LOCALS, _PARAMS, _MOD_PARAMS, _MOD_LOCALS, _FUNCTIONS, ("zz",))
        return self.pick(self.pick(pools))

    def expr(self, depth: int):
        if self.chance(0.02):
            return self.hole()
        if depth <= 0 or self.chance(0.3):
            return self.leaf()
        d = depth - 1
        kind = self.rng.randrange(12)
        if kind == 0:
            return self.src(
                {"nodeType": "BinaryOperation", "operator": self.pick("+-*<>"),
                 "leftExpression": self.expr(d), "rightExpression": self.expr(d)}
            )
        if kind == 1:
            return self.src(
                {"nodeType": "IndexAccess", "baseExpression": self.expr(d),
                 "indexExpression": self.expr(d) if self.chance(0.9) else None}
            )
        if kind == 2:
            return self.src(
                {"nodeType": "IndexRangeAccess", "baseExpression": self.expr(d),
                 "startExpression": self.expr(d), "endExpression": self.expr(d)}
            )
        if kind == 3:
            return self.src(
                {"nodeType": "Conditional", "condition": self.expr(d),
                 "trueExpression": self.expr(d), "falseExpression": self.expr(d)}
            )
        if kind == 4:
            if self.chance(0.5):
                member = self.pick(("sender", "value", "data", "origin"))
                return self.member(self.ident(self.pick(_ENV)), member)
            return self.member(self.expr(d), self.pick(_MEMBERS))
        if kind == 5:
            op = self.pick(("++", "--", "delete", "!", "-"))
            return self.src(
                {"nodeType": "UnaryOperation", "operator": op, "prefix": self.chance(0.5),
                 "subExpression": self.lvalue(d) if op in ("++", "--", "delete") else self.expr(d)}
            )
        if kind == 6:
            comps = [
                self.expr(d) if self.chance(0.8) else None for _ in range(self.rng.randrange(4))
            ]
            return self.src({"nodeType": "TupleExpression", "components": comps})
        if kind == 7:
            return self.assignment(d)
        if kind in (8, 9, 10):
            return self.call_expr(d)
        if self.chance(0.2):
            # Options with no call applying them.
            return self.options(self.member(self.ident(self.pick(_STATE)), "call"), ["value"])
        return self.src({"nodeType": "MysteryExpression"})

    def leaf(self):
        kind = self.rng.randrange(8)
        if kind < 4:
            return self.ident(self.name())
        if kind == 4:
            return self.member(self.ident("msg"), self.pick(("sender", "value")))
        if kind == 5:
            return self.src({"nodeType": "Literal", "kind": "number", "value": "1"})
        if kind == 6:
            return self.src({"nodeType": "ElementaryTypeNameExpression", "typeName": "uint"})
        return self.src({"nodeType": "NewExpression", "typeName": {"name": self.pick(_CONTRACTS)}})

    def lvalue(self, depth: int):
        kind = self.rng.randrange(6)
        if kind < 2 or depth <= 0:
            return self.ident(self.name())
        d = depth - 1
        if kind == 2:
            return self.member(self.lvalue(d), self.pick(("amount", "length")))
        if kind == 3:
            return self.src(
                {"nodeType": "IndexAccess", "baseExpression": self.lvalue(d),
                 "indexExpression": self.expr(d)}
            )
        if kind == 4:
            comps = [
                self.lvalue(d) if self.chance(0.8) else None
                for _ in range(self.rng.randrange(1, 3))
            ]
            return self.src({"nodeType": "TupleExpression", "components": comps})
        if self.chance(0.5):
            return self.member(self.ident("msg"), self.pick(("sender", "value")))
        return self.expr(d)

    def assignment(self, depth: int) -> dict:
        node = {"nodeType": "Assignment", "leftHandSide": self.lvalue(depth),
                "rightHandSide": self.expr(depth)}
        if self.chance(0.9):
            node["operator"] = self.pick(("=", "=", "+=", "-="))
        return self.src(node)

    def args(self, depth: int) -> list:
        return [self.expr(depth) for _ in range(self.rng.randrange(3))]

    def receiver(self, depth: int):
        if self.chance(0.6):
            return self.ident(self.pick(_STATE + _LOCALS + _PARAMS))
        return self.expr(depth)

    def function_ref(self, depth: int):
        """A function reference that options may decorate."""
        kind = self.rng.randrange(5)
        if kind == 0:
            return self.member(self.receiver(depth), "call")
        if kind == 1:
            return self.member(self.receiver(depth), self.pick(("deposit", "delegatecall")))
        if kind == 2:
            return self.member(self.ident("this"), self.pick(_FUNCTIONS))
        if kind == 3:
            return self.ident(self.pick(_FUNCTIONS + _STATE))
        return self.src({"nodeType": "NewExpression"})

    def legacy(self, head, depth: int) -> dict:
        """`head.value(v)` or `head.gas(g)`, possibly chained."""
        for _ in range(self.rng.randrange(1, 3)):
            option = self.member(head, self.pick(("value", "value", "gas")))
            head = self.call(option, [self.expr(depth)])
        return head

    def call_expr(self, depth: int) -> dict:
        d = depth - 1
        kind = self.rng.randrange(16)
        if kind == 0:
            head = self.ident(self.pick(_BUILTINS))
        elif kind == 1:
            head = self.ident(self.pick(_CONTRACTS + ("",)))
        elif kind == 2:
            head = self.ident(self.pick(_FUNCTIONS + _STATE + _LOCALS + ("zz",)))
        elif kind == 3:
            head = self.member(self.lvalue(d), self.pick(("push", "pop")))
        elif kind == 4:
            head = self.member(self.receiver(d), self.pick(("send", "transfer")))
        elif kind == 5:
            head = self.member(self.receiver(d), self.pick(_MEMBERS + ("",)))
        elif kind == 6:
            head = self.member(self.ident(self.pick(_ENV)), self.pick(_FUNCTIONS + ("encode",)))
        elif kind == 7:
            head = self.src({"nodeType": "NewExpression", "typeName": {"name": "C0"}})
        elif kind == 8:
            head = self.src({"nodeType": "ElementaryTypeNameExpression", "typeName": "address"})
        elif kind == 9:
            names = self.pick((["value"], ["gas"], ["gas", "value"]))
            head = self.options(self.function_ref(d), names)
        elif kind == 10:
            head = self.legacy(self.member(self.receiver(d), "call"), d)
        elif kind == 11:
            head = self.legacy(self.function_ref(d), d)
        elif kind == 12:
            head = self.call_expr(d) if d > 0 else self.call(self.ident(self.pick(_FUNCTIONS)), [])
        elif kind == 13:
            head = self.hole()
        else:
            head = self.expr(d)
        return self.call(head, self.args(d))

    # --- statements -----------------------------------------------------------

    def block(self, depth: int, placeholders: bool = False) -> dict:
        stmts = [self.stmt(depth, placeholders) for _ in range(self.rng.randrange(4))]
        if self.chance(0.003):
            stmts.append(self.hole())
        kind = self.pick(("Block", "Block", "UncheckedBlock"))
        return self.src({"nodeType": kind, "statements": stmts})

    def declaration(self, depth: int, pool) -> dict:
        decls = []
        for _ in range(self.rng.randrange(1, 3)):
            if self.chance(0.1):
                decls.append(None)
            else:
                decls.append(self.src(
                    {"nodeType": "VariableDeclaration", "name": self.pick(pool),
                     "typeName": _uint()}
                ))
        return self.src(
            {"nodeType": "VariableDeclarationStatement", "declarations": decls,
             "initialValue": self.expr(depth) if self.chance(0.7) else None}
        )

    def expression_statement(self, depth: int) -> dict:
        expr = self.assignment(depth) if self.chance(0.4) else self.expr(depth)
        return self.src({"nodeType": "ExpressionStatement", "expression": expr})

    def stmt(self, depth: int, placeholders: bool = False):
        if placeholders and self.chance(0.15):
            return self.src({"nodeType": "PlaceholderStatement"})
        d = depth - 1
        kind = self.rng.randrange(16) if depth > 0 else self.rng.randrange(4)
        pool = _MOD_LOCALS + _LOCALS if placeholders else _LOCALS
        if kind in (0, 1):
            return self.expression_statement(2)
        if kind == 2:
            return self.declaration(2, pool)
        if kind == 3:
            value = self.expr(2) if self.chance(0.7) else None
            return self.src({"nodeType": "Return", "expression": value})
        if kind == 4:
            return self.src(
                {"nodeType": "IfStatement", "condition": self.expr(2),
                 "trueBody": self.block(d, placeholders),
                 "falseBody": self.block(d, placeholders) if self.chance(0.5) else None}
            )
        if kind == 5:
            return self.src(
                {"nodeType": self.pick(("WhileStatement", "DoWhileStatement")),
                 "condition": self.expr(2), "body": self.block(d, placeholders)}
            )
        if kind == 6:
            init = self.pick((None, self.declaration(1, pool), self.expression_statement(1)))
            return self.src(
                {"nodeType": "ForStatement", "initializationExpression": init,
                 "condition": self.expr(2) if self.chance(0.8) else None,
                 "loopExpression": self.expression_statement(1) if self.chance(0.8) else None,
                 "body": self.block(d, placeholders)}
            )
        if kind == 7:
            return self.block(d, placeholders)
        if kind == 8:
            event = self.call(self.ident("Ev"), self.args(1))
            return self.src({"nodeType": "EmitStatement", "eventCall": event})
        if kind == 9:
            error = self.call(self.ident("Err"), self.args(1))
            return self.src({"nodeType": "RevertStatement", "errorCall": error})
        if kind == 10:
            clauses = [
                self.src({"nodeType": "TryCatchClause", "block": self.block(d, placeholders)})
                for _ in range(self.rng.randrange(3))
            ]
            return self.src(
                {"nodeType": "TryStatement", "externalCall": self.call_expr(2), "clauses": clauses}
            )
        if kind == 11:
            return self.src({"nodeType": self.pick(("Break", "Continue", "Throw"))})
        if kind == 12:
            return self.src({"nodeType": "InlineAssembly"})
        if kind == 13:
            return self.src({"nodeType": "MysteryStatement"})
        return self.expression_statement(2)

    # --- members ----------------------------------------------------------------

    def parameters(self, pool, most: int) -> dict | object:
        if self.chance(0.01):
            return self.hole()
        params = [
            self.src({"nodeType": "VariableDeclaration", "name": self.pick(pool + ("",)),
                      "typeName": _uint()})
            for _ in range(self.rng.randrange(most + 1))
        ]
        return {"nodeType": "ParameterList", "parameters": params}

    def modifier(self) -> dict:
        return self.src(
            {"nodeType": "ModifierDefinition", "name": self.pick(_MODIFIERS),
             "parameters": self.parameters(_MOD_PARAMS, 2),
             "body": self.block(2, placeholders=True)}
        )

    def invocation(self) -> dict:
        name = self.pick(_MODIFIERS + _CONTRACTS + ("mx",))
        node = {"nodeType": "ModifierInvocation", "modifierName": _path(name)}
        if self.chance(0.7):
            node["arguments"] = self.args(2)
        return node

    def function(self, contract: str) -> dict:
        kind = self.pick(("function",) * 3 + ("constructor", "fallback", "receive"))
        node = {
            "nodeType": "FunctionDefinition",
            "name": self.pick(_FUNCTIONS + (contract,)) if kind == "function" else "",
            "kind": kind,
            "visibility": self.pick(("public", "external", "internal")),
            "stateMutability": self.pick(("nonpayable", "payable", "view")),
            "parameters": self.parameters(_PARAMS, 2),
            "returnParameters": self.parameters(_LOCALS + _PARAMS, 1),
            "modifiers": [self.invocation() for _ in range(self.rng.randrange(3))],
            "body": self.block(3) if self.chance(0.95) else None,
        }
        if self.chance(0.05):
            node["isConstructor"] = True
        return self.src(node)

    def contract(self, name: str, earlier: list[str]) -> dict:
        members = []
        for _ in range(self.rng.randrange(2, 7)):
            kind = self.rng.randrange(10)
            if kind < 2:
                var = self.pick(_STATE)
                members.append(self.src(
                    {"nodeType": "VariableDeclaration", "name": var, "typeName": _uint()}
                ))
            elif kind == 2:
                members.append(self.src({"nodeType": "EventDefinition", "name": "Ev"}))
            elif kind < 5:
                members.append(self.modifier())
            else:
                members.append(self.function(name))
        if self.chance(0.01):
            members.append(self.hole())
        bases = [b for b in earlier if self.chance(0.5)]
        if self.chance(0.03):
            bases.append(self.pick(("Ownable", name)))
        return self.src({
            "nodeType": "ContractDefinition",
            "name": name,
            "baseContracts": [
                {"nodeType": "InheritanceSpecifier", "baseName": _path(b)}
                for b in bases
            ],
            "nodes": members,
        })


def _reshape(doc: dict, gen: _Gen) -> None:
    """Reshape, rarely, each field under `doc` that holds a list or an
    object: a list becomes a scalar or an object keyed by position, an
    object becomes a scalar."""
    stack: list = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, dict):
            for key, value in node.items():
                if not isinstance(value, (dict, list)) or not gen.chance(_RESHAPE):
                    continue
                if isinstance(value, list) and gen.chance(0.5):
                    node[key] = {str(i): item for i, item in enumerate(value)}
                else:
                    node[key] = gen.pick(_SCALARS)
            stack.extend(node.values())


def _sorted_keys(node):
    if isinstance(node, dict):
        return {k: _sorted_keys(node[k]) for k in sorted(node)}
    if isinstance(node, list):
        return [_sorted_keys(n) for n in node]
    return node


def unit(seed: int) -> dict:
    """One AST document, the same for the same seed."""
    gen = _Gen(seed)
    contracts = []
    for name in _CONTRACTS[: gen.rng.randrange(1, 4)]:
        contracts.append(gen.contract(name, [c["name"] for c in contracts]))
    root = {"nodeType": "SourceUnit", "nodes": contracts, "src": f"0:{gen.pos}:0"}
    if gen.chance(0.3):
        root = _sorted_keys(root)
    source = "".join(gen.text)
    doc = {"compiler": {"version": "0.8.19"},
           "sources": {f"fuzz{seed}.sol": {"content": source, "ast": root}}}
    _reshape(doc, gen)
    return doc
