"""Contract object model lowered from compiler AST JSON.

Lowering is flow-insensitive and field-insensitive: every statement becomes
one record with def/use sets of variable references, member and index access
collapse onto the base variable, and a control statement becomes one record
of its condition reads, kept apart from the statements it guards. That
granularity is exactly what the data-flow graph needs; nothing finer is kept.

One walker per AST layer: `_lower_statement` for statements (control
statements from one table) and `_analyze_expression` for expressions, which
folds every sub-expression, lvalue index expressions included, into one
accumulator per statement. The walkers recurse once per nesting level, so
an AST nested deeper than the interpreter's recursion limit allows is
refused with MalformedAst.

Resolution rules:
  * locals and parameters resolve within the function (locals are collected
    up front, so use-before-declaration still resolves);
  * state variables and called functions resolve through the contract's C3
    linearization (Solidity's order, most-derived first, so the rightmost
    base wins), restricted to contracts declared in the same unit; within
    one contract the first declaration of a name wins;
  * the only builtin references modeled are msg.sender and msg.value; other
    environment reads (msg.data, tx.origin, block.*) carry no taint and are
    dropped;
  * identifiers that resolve to nothing are dropped.

Lowering is the one place where a name is bound. Each function has one
table, `FunctionModel.decls`, of the declarations its statements reference:
one entry per (scope, name), each with its scope, name, node path (`(owner,
name)` for state, `(contract, function, name)` otherwise) and span. A state
entry is the declaring contract's own `VariableDecl`. Statements and call
sites refer to entries by index, as tuples of ints, which the garbage
collector does not track. Each call site records the contract declaring its
target, and each contract its linearization, so later layers resolve
nothing.

Calls are kept as call sites with per-call argument read sets, at most one
per call. Names with a leading "." are member calls on some object
(inherently external from this unit's point of view); plain names, `this.f`
included, resolve like state variables, to the declaring contract in the
unit, recorded as the site's `owner`. Value and gas
options (`h{value: v}`, legacy `h.value(v)` and `h.gas(g)`) belong to the
site of the h they decorate. Well-known builtin callables (require, assert,
keccak256, ...) and type conversions produce no call site at all, though
their argument reads are kept.

A modifier is lowered at each invocation, into the table of the function
it wraps, in its own scope (its parameters and locals, then state), and
inlined around the function body at the placeholder statement, with
invocation arguments bound to modifier parameters through synthetic
assignments, so guard reads like `msg.sender == owner` surface in the
function that carries the modifier. Its locals and parameters are keyed by
name like the function's, so a same-named local of the function shares
their entry.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Container, Iterable, Mapping

from .errors import MalformedAst
from .ingest import SourceUnit, source_entry


class Scope(str, Enum):
    STATE = "state"
    LOCAL = "local"
    PARAM = "param"
    BUILTIN = "builtin"


class Kind(str, Enum):
    ASSIGN = "assign"
    DECLARE = "declare"
    CALL = "call"
    VALUE_TRANSFER = "value_transfer"
    BRANCH = "branch"
    LOOP = "loop"
    RETURN = "return"
    EMIT = "emit"
    OPAQUE = "opaque"


BUILTIN_NAMES = ("msg.sender", "msg.value")

CTOR_NAME = "@ctor"
FALLBACK_NAME = "@fallback"
RECEIVE_NAME = "@receive"

# Callable builtins and type-conversion heads that never resolve to a
# contract function; argument reads are kept but no call site is recorded.
_BUILTIN_CALLS = frozenset(
    {
        "require",
        "assert",
        "revert",
        "keccak256",
        "sha256",
        "sha3",
        "ripemd160",
        "ecrecover",
        "addmod",
        "mulmod",
        "selfdestruct",
        "suicide",
        "blockhash",
        "gasleft",
        "payable",
        "address",
        "type",
    }
)

# Environment namespaces whose member reads carry no taint and resolve to
# no declaration.
_ENV_NAMESPACES = frozenset({"msg", "tx", "block", "abi", "this", "super"})

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a statement.

    `name` is the bare function name for direct (or `this.`) calls and a
    "."-prefixed member name for calls on other objects. `arg_reads` holds
    the variable reads feeding the call, including the receiver object for
    member calls, as indices into the function's `decls`. `owner` is the
    contract declaring a direct call's target, or None.
    """

    name: str
    arg_reads: tuple[int, ...]
    owner: str | None = None

    @property
    def external(self) -> bool:
        return self.name.startswith(".")


@dataclass(slots=True)
class Statement:
    """One lowered statement with its def/use sets, as ascending indices
    into the function's `decls`, and its call sites."""

    kind: Kind
    defs: tuple[int, ...]
    uses: tuple[int, ...]
    calls: tuple[CallSite, ...] = ()
    source_span: tuple[int, int] = (0, 0)

    @property
    def callees(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.calls)


@dataclass(slots=True)
class VariableDecl:
    """A declared variable. State variables and the entries of a function's
    `decls` also carry their scope and node path."""

    name: str
    type_name: str = ""
    source_span: tuple[int, int] | None = None
    scope: Scope | None = None
    path: tuple[str, ...] = ()


@dataclass(slots=True)
class EventDecl:
    name: str
    source_span: tuple[int, int] | None = None


@dataclass(slots=True)
class FunctionModel:
    """One function (or constructor/fallback/receive) of one contract.

    `params` are in declaration order; `decls` is the table of declarations
    the statements reference (see the module docstring).
    """

    name: str
    contract: str
    visibility: str = "public"
    payable: bool = False
    params: list[VariableDecl] = field(default_factory=list)
    decls: list[VariableDecl] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    source_span: tuple[int, int] = (0, 0)

    @property
    def qualified_name(self) -> str:
        return f"{self.contract}.{self.name}"


@dataclass(slots=True)
class ContractModel:
    name: str
    state_vars: list[VariableDecl] = field(default_factory=list)
    functions: list[FunctionModel] = field(default_factory=list)
    inherits: list[str] = field(default_factory=list)
    events: list[EventDecl] = field(default_factory=list)
    source_span: tuple[int, int] = (0, 0)
    linearization: tuple[str, ...] = ()  # C3, most-derived first


def linearize(models_by_name: Mapping[str, ContractModel]) -> dict[str, tuple[str, ...]]:
    """Solidity's C3 linearization of every contract, most-derived first.

    `contract C is A, B` gives (C, B, A, ...): the rightmost base is the
    most derived. Bases not declared in the unit are skipped. An explicit
    stack replaces recursion, so base chains of any depth are fine. Raises
    MalformedAst on a cyclic or inconsistent hierarchy.
    """
    bases = {
        name: [b for b in reversed(m.inherits) if b in models_by_name]
        for name, m in models_by_name.items()
    }
    lin: dict[str, tuple[str, ...]] = {}
    entered: set[str] = set()
    for root in bases:
        stack = [root]
        while stack:
            name = stack[-1]
            todo = [b for b in bases[name] if b not in lin]
            if name in lin:
                stack.pop()
            elif todo:
                # An entered but unfinished base is an ancestor on this path.
                if entered.intersection(todo):
                    raise MalformedAst(f"cyclic inheritance through {name!r}")
                entered.add(name)
                stack += todo
            else:
                merged = _c3_merge([lin[b] for b in bases[name]] + [tuple(bases[name])], name)
                lin[name] = (name, *merged)
                stack.pop()
    return lin


def _c3_merge(seqs: list[tuple[str, ...]], contract: str) -> tuple[str, ...]:
    """C3's merge: repeatedly take the first head that is in no tail."""
    if len(seqs) == 2:  # one base: its linearization is already merged
        return seqs[0]
    stacks = [list(reversed(s)) for s in seqs]
    in_tails = Counter(x for s in stacks for x in s[:-1])
    out: list[str] = []
    while any(stacks):
        pick = next((s[-1] for s in stacks if s and not in_tails[s[-1]]), None)
        if pick is None:
            raise MalformedAst(f"no consistent linearization for {contract!r}")
        out.append(pick)
        for s in stacks:
            if s and s[-1] == pick:
                s.pop()
                if s:
                    in_tails[s[-1]] -= 1
    return tuple(out)


class Names:
    """Which contract declares a name, seen from each contract of one unit.

    Holds one linearization per contract, from `ContractModel.inherits`, and
    each contract's own declarations (the first of a name wins). A lookup
    takes the first declaring contract on the linearization and is memoized
    per (contract, name). The tables snapshot the models at construction.
    """

    def __init__(self, models: Iterable[ContractModel]):
        self.models = {m.name: m for m in models}
        self.linearization = linearize(self.models)
        self._own_state = {
            c: {v.name: v for v in reversed(m.state_vars)} for c, m in self.models.items()
        }
        self._own_functions = {c: {f.name for f in m.functions} for c, m in self.models.items()}
        self._state_memo: dict[tuple[str, str], str | None] = {}
        self._function_memo: dict[tuple[str, str], str | None] = {}

    def _owner(
        self, memo: dict, own: Mapping[str, Container[str]], contract: str, name: str
    ) -> str | None:
        key = (contract, name)
        if key not in memo:
            lin = self.linearization.get(contract, ())
            memo[key] = next((c for c in lin if name in own[c]), None)
        return memo[key]

    def state(self, contract: str, name: str) -> tuple[str, VariableDecl] | None:
        """(declaring contract, declaration) of a state variable, or None."""
        owner = self._owner(self._state_memo, self._own_state, contract, name)
        return None if owner is None else (owner, self._own_state[owner][name])

    def function(self, contract: str, name: str) -> str | None:
        """The contract declaring a directly-called function, or None."""
        return self._owner(self._function_memo, self._own_functions, contract, name)


def span_of(node: dict) -> tuple[int, int]:
    """(offset, length) from a node's `src` field; (0, 0) when absent."""
    src = node.get("src")
    if not isinstance(src, str):
        return (0, 0)
    parts = src.split(":")
    try:
        return (int(parts[0]), int(parts[1]))
    except (IndexError, ValueError):
        return (0, 0)


# --- expression analysis ----------------------------------------------------


class _ExprInfo:
    """Reads, writes, call sites, and transfer flag of one statement.

    Walkers fold every sub-expression into the accumulator they are given;
    a separate one is made only where reads must be kept apart: a call's
    arguments, and each option and receiver that feeds a call.
    """

    __slots__ = ("reads", "writes", "calls", "transfer")

    def __init__(self) -> None:
        self.reads: set[int] = set()
        self.writes: set[int] = set()
        self.calls: list[CallSite] = []
        self.transfer = False

    def merge(self, other: "_ExprInfo") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.calls.extend(other.calls)
        self.transfer = self.transfer or other.transfer


@dataclass(slots=True)
class _FnContext:
    """Name-resolution scope for one function or modifier body, and the
    declaration table of the function it is lowered into."""

    contract: str
    function: str
    names: Names
    params: Container[str]
    locals: Container[str]
    source_text: str
    spans: Mapping[str, tuple[int, int]]  # the function's params and locals
    decls: list[VariableDecl]
    index: dict[tuple[Scope, str], int]

    def ref(self, scope: Scope, name: str, decl: VariableDecl | None = None) -> int:
        """The table index of (scope, name), entered on first use; a new
        entry is `decl`, or else made with the span of the function's
        parameter or local of that name."""
        i = self.index.get((scope, name))
        if i is None:
            if decl is None:
                path = (self.contract, self.function, name)
                decl = VariableDecl(name, "", self.spans.get(name), scope, path)
            i = self.index[scope, name] = len(self.decls)
            self.decls.append(decl)
        return i

    def resolve(self, name: str) -> int | None:
        if name in self.locals:
            return self.ref(Scope.LOCAL, name)
        if name in self.params:
            return self.ref(Scope.PARAM, name)
        found = self.names.state(self.contract, name)
        return None if found is None else self.ref(Scope.STATE, name, found[1])


_MSG = frozenset({"msg"})


def _is_env_identifier(node: object, names: frozenset[str] = _ENV_NAMESPACES) -> bool:
    return isinstance(node, dict) and node.get("nodeType") == "Identifier" and (
        node.get("name") in names
    )


# Expression kinds that only read their operands, walked in this order.
_OPERANDS = {
    "IndexAccess": ("baseExpression", "indexExpression"),
    "IndexRangeAccess": ("baseExpression", "startExpression", "endExpression"),
    "BinaryOperation": ("leftExpression", "rightExpression"),
    "Conditional": ("condition", "trueExpression", "falseExpression"),
}
_NO_READS = frozenset({"Literal", "ElementaryTypeNameExpression", "NewExpression"})


def _analyze_expression(
    node: object, ctx: _FnContext, info: _ExprInfo | None = None
) -> _ExprInfo:
    """Fold one expression's reads, writes, call sites and transfer flag
    into `info` (a new accumulator when None), and return it."""
    if info is None:
        info = _ExprInfo()
    if not isinstance(node, dict):
        return info
    nt = node.get("nodeType")

    if nt == "Identifier":
        ref = ctx.resolve(node.get("name", ""))
        if ref is not None:
            info.reads.add(ref)
    elif nt in _OPERANDS:
        for key in _OPERANDS[nt]:
            _analyze_expression(node.get(key), ctx, info)
    elif nt == "MemberAccess":
        base = node.get("expression")
        member = node.get("memberName", "")
        if _is_env_identifier(base, _MSG) and member in ("sender", "value"):
            info.reads.add(ctx.ref(Scope.BUILTIN, f"msg.{member}"))
        elif not _is_env_identifier(base):
            _analyze_expression(base, ctx, info)
    elif nt in ("FunctionCall", "FunctionCallOptions"):
        _call(node, ctx, info)
    elif nt == "UnaryOperation":
        sub = node.get("subExpression")
        if node.get("operator") in ("++", "--", "delete"):
            _write(sub, ctx, info, read=True)
        else:
            _analyze_expression(sub, ctx, info)
    elif nt == "TupleExpression":
        for comp in _list(node, "components"):
            _analyze_expression(comp, ctx, info)
    elif nt == "Assignment":
        # A missing operator is a plain `=`; a compound one reads the target.
        _write(node.get("leftHandSide"), ctx, info, read=node.get("operator", "=") != "=")
        _analyze_expression(node.get("rightHandSide"), ctx, info)
    elif nt not in _NO_READS:
        # Unknown expression kind: fall back to a textual scan of its span.
        info.reads |= _textual_reads(node, ctx)
    return info


def _call(node: dict, ctx: _FnContext, info: _ExprInfo) -> None:
    """Fold one call into `info` and record its call site, if any. The
    arguments fold first; an options node that no call applies has none and
    is its own head."""
    args = _ExprInfo()
    for arg in _list(node, "arguments"):
        _analyze_expression(arg, ctx, args)
    info.merge(args)
    head = node.get("expression") if node.get("nodeType") == "FunctionCall" else node
    name = _callee(head, args.reads, ctx, info)
    if name is not None:
        owner = None if name.startswith(".") else ctx.names.function(ctx.contract, name)
        info.calls.append(CallSite(name, tuple(sorted(args.reads)), owner))


def _callee(head: object, reads: set[int], ctx: _FnContext, info: _ExprInfo) -> str | None:
    """The call-site name of a call head, or None for builtins, type
    conversions, members of other namespaces and `super.` calls.

    Option layers are peeled down to the called function `h`: `h{value: v}`,
    and the legacy `h.value(v)` and `h.gas(g)`, which are only applied when
    `h` is a function. Their reads, and a member call's receiver reads, join
    `reads`; every effect folds into `info`, and a value option marks a
    transfer.
    """
    if not isinstance(head, dict):
        return None
    nt = head.get("nodeType")
    if nt == "Identifier":
        name = head.get("name", "")
        if not name or name in _BUILTIN_CALLS or name in ctx.names.models:
            return None  # a builtin, or a contract-type cast
        ref = ctx.resolve(name)
        if ref is None:
            return name
        # Calling through a function-typed variable: the variable is read;
        # the target is opaque.
        info.reads.add(ref)
        return "." + name

    if nt == "MemberAccess":
        member = head.get("memberName", "")
        base = head.get("expression")
        if member in ("push", "pop"):
            _write(base, ctx, info, read=True)
            return None
        _feed(base, reads, ctx, info)
        if member in ("send", "transfer"):
            info.transfer = True
        elif not member or _is_env_identifier(base):
            # `this.f` calls f directly; other namespaces hold builtins.
            return member if member and base["name"] == "this" else None
        return "." + member

    if nt == "FunctionCallOptions":
        name = _callee(head.get("expression"), reads, ctx, info)
        for opt in _list(head, "options"):
            _feed(opt, reads, ctx, info)
        if "value" in _list(head, "names"):
            info.transfer = True
        return name

    if nt == "FunctionCall":
        option = head.get("expression")
        if isinstance(option, dict) and option.get("memberName") in ("value", "gas"):
            for arg in _list(head, "arguments"):
                _feed(arg, reads, ctx, info)
            if option["memberName"] == "value":
                info.transfer = True
            return _callee(option.get("expression"), reads, ctx, info)
        # Applying a function that a call returned: the inner call is a
        # call of its own.
        _call(head, ctx, info)
        return ".call" if reads else None

    if nt == "NewExpression":
        return ".new" if reads else None

    _analyze_expression(head, ctx, info)
    return None


def _feed(node: object, reads: set[int], ctx: _FnContext, info: _ExprInfo) -> None:
    """Fold an expression that feeds a call into `info`, and its reads into
    the call's `reads`."""
    sub = _analyze_expression(node, ctx)
    info.merge(sub)
    reads |= sub.reads


def _write(node: object, ctx: _FnContext, info: _ExprInfo, read: bool) -> None:
    """Fold a write to the lvalue `node` into `info`.

    The base variables are written, and read too when `read`. Index
    expressions, and an lvalue that is no variable access, fold in like any
    expression, calls and writes included. Builtins are never written; an
    unresolvable target writes nothing.
    """
    if not isinstance(node, dict):
        return
    nt = node.get("nodeType")
    if nt == "Identifier":
        ref = ctx.resolve(node.get("name", ""))
        if ref is not None:
            info.writes.add(ref)
            if read:
                info.reads.add(ref)
    elif nt == "MemberAccess":
        base = node.get("expression")
        if not _is_env_identifier(base):
            _write(base, ctx, info, read)
        elif read:
            _analyze_expression(node, ctx, info)  # msg.sender or msg.value
    elif nt == "IndexAccess":
        _write(node.get("baseExpression"), ctx, info, read)
        _analyze_expression(node.get("indexExpression"), ctx, info)
    elif nt == "TupleExpression":
        for comp in _list(node, "components"):
            _write(comp, ctx, info, read)
    else:
        _analyze_expression(node, ctx, info)


def _textual_reads(node: dict, ctx: _FnContext) -> set[int]:
    """Conservative reads for opaque nodes: identifiers in the node's span
    that resolve in scope, plus msg.sender / msg.value substrings."""
    off, length = span_of(node)
    text = ctx.source_text[off : off + length] if length else ""
    found: set[int] = set()
    for name in dict.fromkeys(_IDENT_RE.findall(text)):
        ref = ctx.resolve(name)
        if ref is not None:
            found.add(ref)
    for builtin in BUILTIN_NAMES:
        if builtin in text:
            found.add(ctx.ref(Scope.BUILTIN, builtin))
    return found


# --- statement lowering -----------------------------------------------------


# Marks the `_;` position inside a lowered modifier body.
_PLACEHOLDER = object()


def _local_decls(node: object, into: dict[str, tuple[int, int]]) -> None:
    """Add the span of each local a body declares to `into`, by name, unless
    the name is there already. Only the statement positions
    `_lower_statement` walks are visited: a declaration statement never sits
    inside an expression."""
    if isinstance(node, list):
        for item in node:
            _local_decls(item, into)
    elif isinstance(node, dict):
        if node.get("nodeType") == "VariableDeclarationStatement":
            for d in _list(node, "declarations"):
                if isinstance(d, dict) and d.get("name"):
                    into.setdefault(d["name"], span_of(d))
        for key, value in node.items():
            if key in _NESTED:
                _local_decls(value, into)


def _type_text(decl: dict) -> str:
    t = decl.get("typeName")
    if isinstance(t, dict) and isinstance(t.get("name"), str):
        return t["name"]
    td = decl.get("typeDescriptions")
    if isinstance(td, dict) and isinstance(td.get("typeString"), str):
        return td["typeString"]
    return ""


# Control statements: the statement kind their condition is lowered as, the
# children lowered before it (For's initialization) and those after it.
_CONTROL = {
    "IfStatement": (Kind.BRANCH, (), ("trueBody", "falseBody")),
    "WhileStatement": (Kind.LOOP, (), ("body",)),
    "DoWhileStatement": (Kind.LOOP, (), ("body",)),
    "ForStatement": (Kind.LOOP, ("initializationExpression",), ("body", "loopExpression")),
}


# Keys that hold statements: a block's, a control statement's children, and
# a try statement's clauses and their blocks.
_NESTED = frozenset(
    {"statements", "clauses", "block"}
    | {k for _, before, after in _CONTROL.values() for k in before + after}
)


def _emit(out: list, kind: Kind, info: _ExprInfo, node: dict) -> None:
    """Append one statement of `info`'s effects, spanning `node`."""
    defs, uses = tuple(sorted(info.writes)), tuple(sorted(info.reads))
    out.append(Statement(kind, defs, uses, tuple(info.calls), span_of(node)))


def _lower_statement(node: object, ctx: _FnContext, out: list) -> None:
    """Append lowered statements (flattened) for one AST statement node."""
    if not isinstance(node, dict):
        return
    nt = node.get("nodeType")

    if nt == "ExpressionStatement":
        expr = node.get("expression")
        info = _analyze_expression(expr, ctx)
        et = expr.get("nodeType") if isinstance(expr, dict) else None
        if info.transfer:
            kind = Kind.VALUE_TRANSFER
        elif et != "Assignment" and (info.calls or et in ("FunctionCall", "FunctionCallOptions")):
            kind = Kind.CALL
        else:
            kind = Kind.ASSIGN
        _emit(out, kind, info, node)
    elif nt in ("Block", "UncheckedBlock"):
        for child in _objects(node, "statements"):
            _lower_statement(child, ctx, out)
    elif nt in _CONTROL:
        kind, before, after = _CONTROL[nt]
        for key in before:
            _lower_statement(node.get(key), ctx, out)
        cond = node.get("condition")
        where = cond if isinstance(cond, dict) else node
        _emit(out, kind, _analyze_expression(cond, ctx), where)
        for key in after:
            _lower_statement(node.get(key), ctx, out)
    elif nt == "VariableDeclarationStatement":
        info = _ExprInfo()
        for d in _list(node, "declarations"):
            if isinstance(d, dict) and d.get("name"):
                info.writes.add(ctx.ref(Scope.LOCAL, d["name"]))
        _analyze_expression(node.get("initialValue"), ctx, info)
        _emit(out, Kind.DECLARE, info, node)
    elif nt == "Return":
        _emit(out, Kind.RETURN, _analyze_expression(node.get("expression"), ctx), node)
    elif nt in ("EmitStatement", "RevertStatement"):
        # Event and error heads are not callable targets, so only the
        # arguments are walked: their reads and call sites are the statement's.
        call = node.get("eventCall" if nt == "EmitStatement" else "errorCall")
        info = _ExprInfo()
        if isinstance(call, dict):
            for arg in _list(call, "arguments"):
                _analyze_expression(arg, ctx, info)
        _emit(out, Kind.EMIT if nt == "EmitStatement" else Kind.CALL, info, node)
    elif nt == "TryStatement":
        _lower_statement(
            {"nodeType": "ExpressionStatement", "expression": node.get("externalCall"),
             "src": node.get("src")},
            ctx,
            out,
        )
        for clause in _list(node, "clauses"):
            if isinstance(clause, dict):
                _lower_statement(clause.get("block"), ctx, out)
    elif nt == "PlaceholderStatement":
        out.append(_PLACEHOLDER)
    elif nt not in ("Break", "Continue", "Throw"):
        # InlineAssembly and anything unrecognized: opaque statement with
        # conservatively scanned uses and no defs.
        info = _ExprInfo()
        info.reads = _textual_reads(node, ctx)
        _emit(out, Kind.OPAQUE, info, node)


def _param_decls(node: dict, key: str) -> list[VariableDecl]:
    plist = node.get(key) or {}
    if not isinstance(plist, dict):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object {key}")
    decls = []
    for p in _objects(plist, "parameters"):
        if p.get("name"):
            decls.append(
                VariableDecl(name=p["name"], type_name=_type_text(p), source_span=span_of(p))
            )
    return decls


def _function_name(node: dict, contract_name: str) -> str:
    kind = node.get("kind")
    name = node.get("name", "")
    if kind == "constructor" or node.get("isConstructor") or (
        name and name == contract_name
    ):
        return CTOR_NAME
    if kind == "receive":
        return RECEIVE_NAME
    if kind == "fallback" or not name:
        return FALLBACK_NAME
    return name


def _lower_function(
    fn_node: dict, ctx: _FnContext, modifiers: Mapping[str, Mapping[str, dict]]
) -> list[Statement]:
    """A function body's statements, wrapped in each modifier's halves. Each
    invocation lowers the nearest definition of its modifier on the
    linearization (`modifiers` holds each contract's own, by name) into the
    function's table; invocation arguments are read in the function's scope."""
    result: list = []
    _lower_statement(fn_node.get("body"), ctx, result)
    result = [s for s in result if s is not _PLACEHOLDER]
    for inv in reversed(_objects(fn_node, "modifiers")):
        mname = inv.get("modifierName", {})
        name = mname.get("name") if isinstance(mname, dict) else None
        if not name or name in ctx.names.models:
            continue  # base-constructor invocation, not a modifier
        lin = ctx.names.linearization[ctx.contract]
        mdef = next((modifiers[c][name] for c in lin if name in modifiers[c]), None)
        if mdef is None:
            continue
        mparams, pre, post = _lower_modifier(mdef, ctx)
        binds: list[Statement] = []
        for p, arg in zip(mparams, _list(inv, "arguments")):
            info = _analyze_expression(arg, ctx)
            info.writes = {ctx.ref(Scope.LOCAL, p.name)}
            _emit(binds, Kind.ASSIGN, info, arg if isinstance(arg, dict) else {})
        result = binds + pre + result + post
    return result


def _lower_modifier(mdef: dict, ctx: _FnContext) -> tuple[list[VariableDecl], list, list]:
    """The parameters of a modifier definition, and the statements before and
    after its first `_;`, lowered in its own scope: its parameters and
    locals, all as locals, then state."""
    params = _param_decls(mdef, "parameters")
    scope = {p.name: p.source_span for p in params}
    _local_decls(mdef.get("body"), scope)
    body: list = []
    _lower_statement(mdef.get("body"), replace(ctx, params=(), locals=scope), body)
    split = (body + [_PLACEHOLDER]).index(_PLACEHOLDER)
    return params, body[:split], [s for s in body[split + 1 :] if s is not _PLACEHOLDER]


def _list(node: dict, key: str) -> list:
    """A node's list under `key` (absent or null is empty); MalformedAst
    unless it is a list."""
    items = node.get(key)
    if items is None:
        return []
    if not isinstance(items, list):
        raise MalformedAst(f"{node.get('nodeType')} has a non-list {key!r}")
    return items


def _objects(node: dict, key: str) -> list[dict]:
    """A node's list under `key`, as `_list` reads it; MalformedAst unless
    its every entry is an object."""
    items = _list(node, key)
    if not all(isinstance(i, dict) for i in items):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object member in {key!r}")
    return items


def lower(unit: SourceUnit) -> list[ContractModel]:
    """Lower a unit's AST into contract models in source order."""
    root = source_entry(unit.ast_json)[1]["ast"]
    contract_nodes_list = [
        n for n in _objects(root, "nodes") if n.get("nodeType") == "ContractDefinition"
    ]
    models: list[ContractModel] = []
    contract_members: dict[str, list[dict]] = {}
    modifiers: dict[str, dict[str, dict]] = {}  # each contract's own, the first of a name

    # First, contract-level declarations, so resolution sees every contract
    # of the unit regardless of order.
    for cnode in contract_nodes_list:
        name = cnode.get("name") or "<anonymous>"
        if name in contract_members:
            # Every table below is keyed by contract name.
            raise MalformedAst(f"two contracts named {name!r}")
        inherits = []
        for base in _list(cnode, "baseContracts"):
            bn = base.get("baseName") if isinstance(base, dict) else None
            if isinstance(bn, dict) and bn.get("name"):
                inherits.append(bn["name"])
        state_vars = []
        events = []
        own_modifiers: dict[str, dict] = {}
        members = _objects(cnode, "nodes")
        for member in members:
            mt = member.get("nodeType")
            if mt == "VariableDeclaration" and member.get("name"):
                state_vars.append(
                    VariableDecl(
                        name=member["name"],
                        type_name=_type_text(member),
                        source_span=span_of(member),
                        scope=Scope.STATE,
                        path=(name, member["name"]),
                    )
                )
            elif mt == "EventDefinition" and member.get("name"):
                events.append(EventDecl(name=member["name"], source_span=span_of(member)))
            elif mt == "ModifierDefinition" and isinstance(member.get("name"), str):
                own_modifiers.setdefault(member["name"], member)
        model = ContractModel(
            name=name,
            state_vars=state_vars,
            inherits=inherits,
            events=events,
            source_span=span_of(cnode),
        )
        models.append(model)
        contract_members[name] = members
        modifiers[name] = own_modifiers

    # Function headers next, so call sites resolve against every function
    # of the unit, whichever contract or position declares it.
    bodies: list[list[dict]] = []
    for model in models:
        members = [
            m for m in contract_members[model.name] if m.get("nodeType") == "FunctionDefinition"
        ]
        model.functions = [
            FunctionModel(
                name=_function_name(member, model.name),
                contract=model.name,
                visibility=member.get("visibility", "public"),
                payable=member.get("stateMutability") == "payable" or bool(member.get("payable")),
                source_span=span_of(member),
            )
            for member in members
        ]
        bodies.append(members)
    names = Names(models)
    for model in models:
        model.linearization = names.linearization[model.name]

    # Last, function bodies, nested no deeper than the recursion limit
    # allows (see the module docstring).
    try:
        for model, members in zip(models, bodies):
            for fn, member in zip(model.functions, members):
                fn.params = _param_decls(member, "parameters")
                local_spans: dict[str, tuple[int, int]] = {}
                _local_decls(member.get("body"), local_spans)
                for r in _param_decls(member, "returnParameters"):
                    local_spans.setdefault(r.name, r.source_span)
                spans = {p.name: p.source_span for p in fn.params} | local_spans
                ctx = _FnContext(
                    model.name, fn.name, names, {p.name for p in fn.params}, local_spans,
                    unit.source_text, spans, fn.decls, {},
                )
                fn.statements = _lower_function(member, ctx, modifiers)
    except RecursionError:
        raise MalformedAst("AST nested too deeply to lower") from None
    return models


def def_use_table(
    fn: FunctionModel,
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per index into `fn.decls`, (def indices, use indices) over the
    function's statements.

    Indices are statement positions in `fn.statements`, ascending. Every
    entry referenced by any statement appears, in (scope, name) order;
    entries never referenced do not.
    """
    table: dict[int, tuple[list[int], list[int]]] = {}
    for i, stmt in enumerate(fn.statements):
        for v in stmt.defs:
            table.setdefault(v, ([], []))[0].append(i)
        for v in stmt.uses:
            table.setdefault(v, ([], []))[1].append(i)
    order = sorted(table, key=lambda v: (fn.decls[v].scope, fn.decls[v].name))
    return {v: (tuple(table[v][0]), tuple(table[v][1])) for v in order}
