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

Records are slotted, and one `lower` call makes one `VarRef` per (scope,
name) and one frozenset per distinct set of references (the empty one is the
shared `NO_REFS`), so a lowered unit holds few objects for the garbage
collector to walk.

Calls are kept as call sites with per-call argument read sets, at most one
per call. Names with a leading "." are member calls on some object
(inherently external from this unit's point of view); plain names, `this.f`
included, are candidates for in-unit resolution later. Value and gas
options (`h{value: v}`, legacy `h.value(v)` and `h.gas(g)`) belong to the
site of the h they decorate. Well-known builtin callables (require, assert,
keccak256, ...) and type conversions produce no call site at all, though
their argument reads are kept.

Each modifier is lowered once per contract, in its own scope (its
parameters and locals, then state), and inlined around the function body at
the placeholder statement, with invocation arguments bound to modifier
parameters through synthetic assignments, so guard reads like
`msg.sender == owner` surface in the function that carries the modifier.
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


@dataclass(frozen=True, order=True, slots=True)
class VarRef:
    """A reference to one variable, identified by scope and name.

    The hash is computed once: references are hashed far more often than
    they are made, and `lower` makes one per (scope, name).
    """

    scope: Scope
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.scope, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a string's hash differs between processes.
        return VarRef, (self.scope, self.name)

    def __str__(self) -> str:
        return f"{self.scope.value}:{self.name}"


# The one empty set of references, shared by every record that has none.
NO_REFS: frozenset[VarRef] = frozenset()


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a statement.

    `name` is the bare function name for direct (or `this.`) calls and a
    "."-prefixed member name for calls on other objects. `arg_reads` holds
    the variable reads feeding the call, including the receiver object for
    member calls.
    """

    name: str
    arg_reads: frozenset[VarRef]

    @property
    def external(self) -> bool:
        return self.name.startswith(".")


@dataclass(slots=True)
class Statement:
    """One lowered statement with its def/use sets and call sites. Never
    mutated once lowered: functions share their modifiers' statements."""

    kind: Kind
    defs: frozenset[VarRef]
    uses: frozenset[VarRef]
    calls: tuple[CallSite, ...] = ()
    source_span: tuple[int, int] = (0, 0)

    @property
    def callees(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.calls)


@dataclass(slots=True)
class VariableDecl:
    name: str
    type_name: str = ""
    source_span: tuple[int, int] | None = None


@dataclass(slots=True)
class EventDecl:
    name: str
    source_span: tuple[int, int] | None = None


@dataclass(slots=True)
class FunctionModel:
    """One function (or constructor/fallback/receive) of one contract."""

    name: str
    contract: str
    visibility: str = "public"
    payable: bool = False
    params: list[VariableDecl] = field(default_factory=list)
    locals: list[VariableDecl] = field(default_factory=list)
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
        self.reads: set[VarRef] = set()
        self.writes: set[VarRef] = set()
        self.calls: list[CallSite] = []
        self.transfer = False

    def merge(self, other: "_ExprInfo") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.calls.extend(other.calls)
        self.transfer = self.transfer or other.transfer


class _Interner:
    """One `VarRef` per (scope, name) and one frozenset per distinct set of
    references, for the records of one `lower` call.

    It lives only as long as that call: a module-level table would keep
    every unit's references alive and be shared by batch threads.
    """

    __slots__ = ("_refs", "_sets")

    def __init__(self) -> None:
        self._refs: dict[tuple[Scope, str], VarRef] = {}
        self._sets: dict[frozenset[VarRef], frozenset[VarRef]] = {NO_REFS: NO_REFS}

    def ref(self, scope: Scope, name: str) -> VarRef:
        ref = self._refs.get((scope, name))
        if ref is None:
            ref = self._refs[scope, name] = VarRef(scope, name)
        return ref

    def refs(self, items: Iterable[VarRef]) -> frozenset[VarRef]:
        found = frozenset(items)
        return self._sets.setdefault(found, found)


@dataclass(slots=True)
class _FnContext:
    """Name-resolution scope for one function or modifier body."""

    contract: str
    names: Names
    params: Container[str]
    locals: Container[str]
    source_text: str
    intern: _Interner

    def resolve(self, name: str) -> VarRef | None:
        if name in self.locals:
            return self.intern.ref(Scope.LOCAL, name)
        if name in self.params:
            return self.intern.ref(Scope.PARAM, name)
        if self.names.state(self.contract, name) is not None:
            return self.intern.ref(Scope.STATE, name)
        return None


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
            info.reads.add(ctx.intern.ref(Scope.BUILTIN, f"msg.{member}"))
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
        info.calls.append(CallSite(name, ctx.intern.refs(args.reads)))


def _callee(head: object, reads: set[VarRef], ctx: _FnContext, info: _ExprInfo) -> str | None:
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


def _feed(node: object, reads: set[VarRef], ctx: _FnContext, info: _ExprInfo) -> None:
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


def _textual_reads(node: dict, ctx: _FnContext) -> set[VarRef]:
    """Conservative reads for opaque nodes: identifiers in the node's span
    that resolve in scope, plus msg.sender / msg.value substrings."""
    off, length = span_of(node)
    text = ctx.source_text[off : off + length] if length else ""
    found: set[VarRef] = set()
    for name in set(_IDENT_RE.findall(text)):
        ref = ctx.resolve(name)
        if ref is not None:
            found.add(ref)
    for builtin in BUILTIN_NAMES:
        if builtin in text:
            found.add(ctx.intern.ref(Scope.BUILTIN, builtin))
    return found


# --- statement lowering -----------------------------------------------------


# Marks the `_;` position inside a lowered modifier body.
_PLACEHOLDER = object()


def _local_decls(node: object, into: list[VariableDecl], seen: set[str]) -> None:
    """Append the locals a body declares, the first of each name, in
    document order. Only the statement positions `_lower_statement` walks
    are visited: a declaration statement never sits inside an expression."""
    if isinstance(node, list):
        for item in node:
            _local_decls(item, into, seen)
    elif isinstance(node, dict):
        if node.get("nodeType") == "VariableDeclarationStatement":
            for d in _list(node, "declarations"):
                if isinstance(d, dict) and d.get("name") and d["name"] not in seen:
                    seen.add(d["name"])
                    into.append(
                        VariableDecl(
                            name=d["name"],
                            type_name=_type_text(d),
                            source_span=span_of(d),
                        )
                    )
        for key, value in node.items():
            if key in _NESTED:
                _local_decls(value, into, seen)


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


def _emit(out: list, ctx: _FnContext, kind: Kind, info: _ExprInfo, node: dict) -> None:
    """Append one statement of `info`'s effects, spanning `node`."""
    refs = ctx.intern.refs
    calls = tuple(info.calls)
    out.append(Statement(kind, refs(info.writes), refs(info.reads), calls, span_of(node)))


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
        _emit(out, ctx, kind, info, node)
    elif nt in ("Block", "UncheckedBlock"):
        for child in _objects(node, "statements"):
            _lower_statement(child, ctx, out)
    elif nt in _CONTROL:
        kind, before, after = _CONTROL[nt]
        for key in before:
            _lower_statement(node.get(key), ctx, out)
        cond = node.get("condition")
        where = cond if isinstance(cond, dict) else node
        _emit(out, ctx, kind, _analyze_expression(cond, ctx), where)
        for key in after:
            _lower_statement(node.get(key), ctx, out)
    elif nt == "VariableDeclarationStatement":
        info = _ExprInfo()
        for d in _list(node, "declarations"):
            if isinstance(d, dict) and d.get("name"):
                info.writes.add(ctx.intern.ref(Scope.LOCAL, d["name"]))
        _analyze_expression(node.get("initialValue"), ctx, info)
        _emit(out, ctx, Kind.DECLARE, info, node)
    elif nt == "Return":
        _emit(out, ctx, Kind.RETURN, _analyze_expression(node.get("expression"), ctx), node)
    elif nt in ("EmitStatement", "RevertStatement"):
        # Event and error heads are not callable targets, so only the
        # arguments are walked: their reads and call sites are the statement's.
        call = node.get("eventCall" if nt == "EmitStatement" else "errorCall")
        info = _ExprInfo()
        if isinstance(call, dict):
            for arg in _list(call, "arguments"):
                _analyze_expression(arg, ctx, info)
        _emit(out, ctx, Kind.EMIT if nt == "EmitStatement" else Kind.CALL, info, node)
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
        _emit(out, ctx, Kind.OPAQUE, info, node)


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
    fn_node: dict,
    ctx: _FnContext,
    members: Mapping[str, list[dict]],
    lowered: dict[str, tuple[list[VariableDecl], list, list] | None],
) -> list[Statement]:
    """A function body's statements, wrapped in each modifier's halves. A
    modifier is lowered on its first invocation into the contract's
    `lowered`; invocation arguments are read in the function's scope."""
    result: list = []
    _lower_statement(fn_node.get("body"), ctx, result)
    result = [s for s in result if s is not _PLACEHOLDER]
    for inv in reversed(_objects(fn_node, "modifiers")):
        mname = inv.get("modifierName", {})
        name = mname.get("name") if isinstance(mname, dict) else None
        if not name or name in ctx.names.models:
            continue  # base-constructor invocation, not a modifier
        if name not in lowered:
            lowered[name] = _lower_modifier(name, ctx, members)
        if lowered[name] is None:
            continue
        mparams, pre, post = lowered[name]
        binds: list[Statement] = []
        for p, arg in zip(mparams, _list(inv, "arguments")):
            info = _analyze_expression(arg, ctx)
            info.writes = {ctx.intern.ref(Scope.LOCAL, p.name)}
            _emit(binds, ctx, Kind.ASSIGN, info, arg if isinstance(arg, dict) else {})
        result = binds + pre + result + post
    return result


def _lower_modifier(
    name: str, ctx: _FnContext, members: Mapping[str, list[dict]]
) -> tuple[list[VariableDecl], list, list] | None:
    """The parameters and the statements before and after the first `_;` of
    the nearest modifier `name` on the linearization (None if none), lowered
    in its own scope: its parameters and locals, all as locals, then state."""
    for contract in ctx.names.linearization[ctx.contract]:
        for mdef in members[contract]:
            if mdef.get("nodeType") == "ModifierDefinition" and mdef.get("name") == name:
                params = _param_decls(mdef, "parameters")
                scope = {p.name for p in params}
                _local_decls(mdef.get("body"), [], scope)
                body: list = []
                _lower_statement(mdef.get("body"), replace(ctx, params=(), locals=scope), body)
                split = (body + [_PLACEHOLDER]).index(_PLACEHOLDER)
                return params, body[:split], [s for s in body[split + 1 :] if s is not _PLACEHOLDER]
    return None


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

    # First pass: declarations, so cross-contract resolution sees every
    # contract of the unit regardless of order.
    for cnode in contract_nodes_list:
        name = cnode.get("name") or "<anonymous>"
        inherits = []
        for base in _list(cnode, "baseContracts"):
            bn = base.get("baseName") if isinstance(base, dict) else None
            if isinstance(bn, dict) and bn.get("name"):
                inherits.append(bn["name"])
        state_vars = []
        events = []
        members = _objects(cnode, "nodes")
        for member in members:
            mt = member.get("nodeType")
            if mt == "VariableDeclaration" and member.get("name"):
                state_vars.append(
                    VariableDecl(
                        name=member["name"],
                        type_name=_type_text(member),
                        source_span=span_of(member),
                    )
                )
            elif mt == "EventDefinition" and member.get("name"):
                events.append(EventDecl(name=member["name"], source_span=span_of(member)))
        model = ContractModel(
            name=name,
            state_vars=state_vars,
            inherits=inherits,
            events=events,
            source_span=span_of(cnode),
        )
        models.append(model)
        contract_members[name] = members

    names = Names(models)
    intern = _Interner()

    # Second pass: function bodies, nested no deeper than the recursion
    # limit allows (see the module docstring).
    try:
        for model in models:
            lowered: dict = {}
            for member in contract_members[model.name]:
                if member.get("nodeType") != "FunctionDefinition":
                    continue
                fname = _function_name(member, model.name)
                params = _param_decls(member, "parameters")
                local_decls: list[VariableDecl] = []
                local_names: set[str] = set()
                _local_decls(member.get("body"), local_decls, local_names)
                for r in _param_decls(member, "returnParameters"):
                    if r.name not in local_names:
                        local_names.add(r.name)
                        local_decls.append(r)
                fn_params = {p.name for p in params}
                ctx = _FnContext(model.name, names, fn_params, local_names, unit.source_text, intern)
                statements = _lower_function(member, ctx, contract_members, lowered)
                model.functions.append(
                    FunctionModel(
                        name=fname,
                        contract=model.name,
                        visibility=member.get("visibility", "public"),
                        payable=member.get("stateMutability") == "payable"
                        or bool(member.get("payable")),
                        params=params,
                        locals=local_decls,
                        statements=statements,
                        source_span=span_of(member),
                    )
                )
    except RecursionError:
        raise MalformedAst("AST nested too deeply to lower") from None
    return models


def def_use_table(
    fn: FunctionModel,
) -> dict[VarRef, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-variable (def indices, use indices) over the function's statements.

    Indices are statement positions in `fn.statements`, ascending. Every
    variable referenced by any statement appears; variables never referenced
    do not.
    """
    table: dict[VarRef, tuple[list[int], list[int]]] = {}
    for i, stmt in enumerate(fn.statements):
        for v in stmt.defs:
            table.setdefault(v, ([], []))[0].append(i)
        for v in stmt.uses:
            table.setdefault(v, ([], []))[1].append(i)
    return {v: (tuple(d), tuple(u)) for v, (d, u) in sorted(table.items())}

