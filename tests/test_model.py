"""Statement-level IR extraction: kinds, def/use sets, call sites."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import astfuzz
import fixutil
import programs
from astgen import (
    Bin,
    Call,
    Contract,
    Fn,
    Id,
    Index,
    Lit,
    Member,
    Modifier,
    EventDef,
    SAssign,
    SEmit,
    SExpr,
    SOpaque,
    SPlaceholder,
    SRevert,
    StateVar,
    Un,
    VOpts,
    build_unit,
)
from ponzilens.detect import run_static_pipeline
from ponzilens.errors import JsonError, MalformedAst
from ponzilens.ingest import load_ast
from ponzilens.model import (
    NO_REFS,
    ContractModel,
    Kind,
    Names,
    Scope,
    VarRef,
    VariableDecl,
    def_use_table,
    linearize,
    lower,
)


def _sv(name: str) -> VarRef:
    return VarRef(scope=Scope.STATE, name=name)


def _lv(name: str) -> VarRef:
    return VarRef(scope=Scope.LOCAL, name=name)


def _pv(name: str) -> VarRef:
    return VarRef(scope=Scope.PARAM, name=name)


def _bv(name: str) -> VarRef:
    return VarRef(scope=Scope.BUILTIN, name=name)


def _fn(name: str, contract_fn: str):
    contract, _, fname = contract_fn.partition(".")
    for m in lower(fixutil.load_unit(name)):
        if m.name != contract:
            continue
        for f in m.functions:
            if f.name == fname:
                return f
    raise AssertionError(f"{contract_fn} not found in {name}")


def test_simple_ponzi_statement_kinds():
    f = _fn("simple_ponzi", "SimplePonzi.enter")
    assert [s.kind for s in f.statements] == [
        Kind.DECLARE,
        Kind.ASSIGN,
        Kind.DECLARE,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.ASSIGN,
        Kind.LOOP,
        Kind.DECLARE,
        Kind.VALUE_TRANSFER,
        Kind.ASSIGN,
        Kind.ASSIGN,
    ]


def test_simple_ponzi_def_use_table():
    f = _fn("simple_ponzi", "SimplePonzi.enter")
    table = def_use_table(f)
    assert table == {
        _bv("msg.sender"): ((), (4,)),
        _bv("msg.value"): ((), (1,)),
        _lv("amount"): ((0, 1), (5, 6)),
        _lv("idx"): ((2,), (4, 5)),
        _lv("transactionAmount"): ((8,), (9, 10)),
        _sv("balance"): ((6, 10), (6, 7, 10)),
        _sv("payoutIdx"): ((11,), (7, 8, 9, 11)),
        _sv("persons"): ((3, 4, 5), (2, 3, 7, 8, 9)),
    }
    # Insertion order is the sorted ref order, so dumps are reproducible.
    assert list(table) == sorted(table)


def test_compound_assign_reads_lhs():
    f = _fn("inherit", "Base.put")
    (s,) = f.statements
    assert s.defs == frozenset({_sv("reserve")})
    assert s.uses == frozenset({_bv("msg.value"), _sv("reserve")})


def test_constructor_names_modern_and_legacy():
    assert _fn("mini_token", "MiniToken.@ctor").name == "@ctor"
    legacy = _fn("legacy", "Legacy.@ctor")
    (s,) = legacy.statements
    assert s.defs == frozenset({_sv("owner")})
    assert s.uses == frozenset({_bv("msg.sender")})


def test_receive_and_fallback_names():
    _, doc = build_unit(
        "rf",
        [
            Contract(
                "RF",
                [
                    StateVar("uint", "x"),
                    Fn("", [], [SAssign(Id("x"), "=", Lit("1"))], kind="receive", mutability="payable"),
                    Fn("", [], [SAssign(Id("x"), "=", Lit("2"))], kind="fallback"),
                ],
            )
        ],
    )
    m = lower(load_ast(doc))[0]
    assert [f.name for f in m.functions] == ["@receive", "@fallback"]
    assert [f.payable for f in m.functions] == [True, False]
    assert [f.qualified_name for f in m.functions] == ["RF.@receive", "RF.@fallback"]


def test_modifier_inlining_binds_args_then_splices_body():
    join = _fn("gated", "Gated.join")
    kinds = [s.kind for s in join.statements]
    assert kinds == [Kind.ASSIGN, Kind.CALL, Kind.ASSIGN]
    bind, guard, body = join.statements
    assert bind.defs == frozenset({_lv("minv")})
    assert bind.uses == frozenset()
    assert guard.uses == frozenset({_bv("msg.value"), _lv("minv")})
    assert body.defs == frozenset({_sv("pot")})
    assert body.uses == frozenset({_bv("msg.value"), _sv("pot")})


def test_parameterless_modifier_guard():
    sweep = _fn("gated", "Gated.sweep")
    guard = sweep.statements[0]
    assert guard.kind is Kind.CALL
    assert guard.uses == frozenset({_bv("msg.sender"), _sv("owner")})
    assert guard.calls == ()


def test_emit_reads_args_without_call_site():
    dep = _fn("pool", "Pool.deposit")
    emit = dep.statements[1]
    assert emit.kind is Kind.EMIT
    assert emit.uses == frozenset({_bv("msg.sender"), _bv("msg.value")})
    assert emit.calls == ()
    assert emit.defs == frozenset()


@pytest.mark.parametrize("stmt, kind", [(SEmit, Kind.EMIT), (SRevert, Kind.CALL)])
def test_emit_and_revert_keep_nested_call_sites(stmt, kind):
    # emit Ev(f(msg.value)); / revert Ev(f(msg.value)); f is a site, Ev is not.
    _, doc = build_unit(
        "ev",
        [
            Contract(
                "E",
                [
                    StateVar("uint", "x"),
                    EventDef("Ev", [("uint", "v")]),
                    Fn("f", [("uint", "v")], [SAssign(Id("x"), "=", Id("v"))]),
                    Fn("pay", [], [stmt("Ev", [Call(Id("f"), [Member(Id("msg"), "value")])])],
                       mutability="payable"),
                ],
            )
        ],
    )
    unit = load_ast(doc)
    pay = next(f for f in lower(unit)[0].functions if f.name == "pay")
    (s,) = pay.statements
    assert s.kind is kind
    assert [(c.name, c.arg_reads) for c in s.calls] == [("f", frozenset({_bv("msg.value")}))]
    assert s.uses == frozenset({_bv("msg.value")})
    assert "E.f" in run_static_pipeline(unit).bundle.selected


def test_call_options_transfer_records_single_site():
    flush = _fn("pool", "Pool.flush")
    (s,) = flush.statements
    assert s.kind is Kind.VALUE_TRANSFER
    assert [c.name for c in s.calls] == [".call"]
    assert s.calls[0].arg_reads == frozenset({_pv("dest"), _sv("poolSize")})


def test_send_transfer_site():
    drain = _fn("inherit", "Child.drain")
    transfer = drain.statements[1]
    assert transfer.kind is Kind.VALUE_TRANSFER
    assert [c.name for c in transfer.calls] == [".send"]
    assert transfer.calls[0].arg_reads == frozenset({_lv("take"), _pv("target")})


def test_internal_call_sites_resolve_by_name():
    u = fixutil.load_unit("caller")
    m = lower(u)[0]
    sites = {
        f.name: [c.name for s in f.statements for c in s.calls] for f in m.functions
    }
    assert sites == {"stash": [], "bump": [], "take": ["stash"], "tick": ["bump"]}
    take = next(f for f in m.functions if f.name == "take")
    (call_stmt,) = [s for s in take.statements if s.calls]
    assert call_stmt.calls[0].arg_reads == frozenset({_bv("msg.value")})


def test_unresolved_call_keeps_site_and_args():
    ping = _fn("two_contracts", "Beta.ping")
    (s,) = ping.statements
    assert s.kind is Kind.CALL
    assert [(c.name, c.arg_reads) for c in s.calls] == [
        ("mystery", frozenset({_pv("n")}))
    ]


def test_inline_assembly_is_opaque_with_textual_reads():
    lock = _fn("vaulted", "Vaulted.lock")
    asm = lock.statements[1]
    assert asm.kind is Kind.OPAQUE
    assert asm.uses == frozenset({_sv("vault")})
    assert asm.defs == frozenset()


def test_unknown_statement_type_is_opaque():
    _, doc = build_unit(
        "op",
        [
            Contract(
                "Op",
                [StateVar("uint", "secret"), Fn("poke", [], [SOpaque("secret ~~ 1")])],
            )
        ],
    )
    fn = lower(load_ast(doc))[0].functions[0]
    (s,) = fn.statements
    assert s.kind is Kind.OPAQUE
    assert s.uses == frozenset({_sv("secret")})


def test_builtin_call_heads_are_not_sites():
    transfer = _fn("mini_token", "MiniToken.transfer")
    req = transfer.statements[0]
    assert req.kind is Kind.CALL
    assert req.calls == ()
    assert req.uses == frozenset({_bv("msg.sender"), _pv("amount"), _sv("balances")})


def test_mapping_writes_read_their_keys():
    ctor = _fn("mini_token", "MiniToken.@ctor")
    first = ctor.statements[0]
    assert first.defs == frozenset({_sv("balances")})
    assert first.uses == frozenset({_bv("msg.sender"), _pv("supply")})


def test_bare_return_statement():
    f = _fn("hollow", "Noop.nothing")
    (s,) = f.statements
    assert s.kind is Kind.RETURN
    assert s.defs == frozenset() and s.uses == frozenset()


def test_view_function_reads_state():
    audit = _fn("pool", "Pool.audit")
    (s,) = audit.statements
    assert s.kind is Kind.RETURN
    assert s.uses == frozenset({_sv("poolSize")})


def test_constructor_with_literal_only_has_no_uses():
    ctor = _fn("init_rule", "Init.@ctor")
    (s,) = ctor.statements
    assert s.defs == frozenset({_sv("limit")})
    assert s.uses == frozenset()


def test_payable_flag():
    assert _fn("init_rule", "Init.fund").payable
    assert not _fn("init_rule", "Init.@ctor").payable


def test_function_spans_are_verbatim():
    u = fixutil.load_unit("simple_ponzi")
    f = lower(u)[0].functions[0]
    start, length = f.source_span
    text = u.source_text[start : start + length]
    assert text.startswith("function enter()")
    assert text.endswith("}")


def test_expression_statement_with_nested_call_argument():
    # g(h(x)) records both sites; the inner one keeps its own argument reads.
    _, doc = build_unit(
        "nest",
        [
            Contract(
                "Nest",
                [
                    StateVar("uint", "x"),
                    Fn("g", [("uint", "a")], []),
                    Fn("h", [("uint", "b")], []),
                    Fn("run", [], [SExpr(Call(Id("g"), [Call(Id("h"), [Id("x")])]))]),
                ],
            )
        ],
    )
    run = next(f for f in lower(load_ast(doc))[0].functions if f.name == "run")
    (s,) = run.statements
    assert sorted(c.name for c in s.calls) == ["g", "h"]
    by_name = {c.name: c.arg_reads for c in s.calls}
    assert by_name["h"] == frozenset({_sv("x")})
    assert _sv("x") in by_name["g"]


_VALUE = Member(Id("msg"), "value")
_CALL_X = Member(Id("x"), "call")


def _pay_statement(expr):
    """The lowered `expr;` in payable C.pay(), where C has state x, c and g
    and a function f."""
    _, doc = build_unit(
        "pay",
        [
            Contract(
                "C",
                [
                    StateVar("address", "x"),
                    StateVar("Bank", "c"),
                    StateVar("uint", "g"),
                    Fn("f", [("uint", "v")], []),
                    Fn("pay", [], [SExpr(expr)], mutability="payable"),
                ],
            )
        ],
    )
    pay = next(f for f in lower(load_ast(doc))[0].functions if f.name == "pay")
    (s,) = pay.statements
    return s


@pytest.mark.parametrize(
    ("expr", "kind", "site", "reads"),
    [
        pytest.param(
            Call(Member(Id("this"), "f"), [_VALUE]), Kind.CALL, "f", {_bv("msg.value")},
            id="this_call",
        ),
        pytest.param(
            Call(Call(Member(Member(Id("c"), "deposit"), "value"), [_VALUE]), [Id("g")]),
            Kind.VALUE_TRANSFER, ".deposit", {_bv("msg.value"), _sv("c"), _sv("g")},
            id="legacy_value_on_a_member",
        ),
        pytest.param(
            Call(VOpts(Member(Id("c"), "deposit"), _VALUE), [Id("g")]),
            Kind.VALUE_TRANSFER, ".deposit", {_bv("msg.value"), _sv("c"), _sv("g")},
            id="options_on_a_member",
        ),
        pytest.param(
            Call(Call(Member(Call(Member(_CALL_X, "gas"), [Id("g")]), "value"), [_VALUE])),
            Kind.VALUE_TRANSFER, ".call", {_bv("msg.value"), _sv("g"), _sv("x")},
            id="gas_then_value",
        ),
        pytest.param(
            Call(Call(Member(Call(Member(_CALL_X, "value"), [_VALUE]), "gas"), [Id("g")])),
            Kind.VALUE_TRANSFER, ".call", {_bv("msg.value"), _sv("g"), _sv("x")},
            id="value_then_gas",
        ),
    ],
)
def test_call_options_belong_to_the_one_site_of_the_called_function(expr, kind, site, reads):
    s = _pay_statement(expr)
    assert s.kind is kind
    assert [c.name for c in s.calls] == [site]
    assert s.calls[0].arg_reads == s.uses == reads


def test_modifier_arguments_are_read_in_the_function_scope():
    # join(uint v) atLeast(v), where atLeast's parameter is also named v.
    bind, guard, _body = _fn("relay", "Bound.join").statements
    assert (bind.defs, bind.uses) == (frozenset({_lv("v")}), frozenset({_pv("v")}))
    assert guard.uses == frozenset({_bv("msg.value"), _lv("v")})


def test_modifier_body_resolves_in_its_own_scope():
    # `seen = pot` in track reads the state pot, not join's local pot.
    seen, _declare = _fn("relay", "Track.join").statements
    assert seen.uses == frozenset({_sv("pot")})
    # `pot = f` in fee reads fee's own local f.
    declare, pot = _fn("relay", "Fee.enter").statements
    assert declare.defs == frozenset({_lv("f")})
    assert pot.uses == frozenset({_lv("f")})


def test_functions_share_the_lowered_statements_of_a_modifier():
    guard = SExpr(Call(Id("require"), [Bin(Member(Id("msg"), "sender"), "==", Id("owner"))]))
    _, doc = build_unit(
        "shared",
        [
            Contract(
                "Shared",
                [
                    StateVar("address", "owner"),
                    StateVar("uint", "x"),
                    Modifier("onlyOwner", [], [guard, SPlaceholder()]),
                    Fn("a", [], [SAssign(Id("x"), "=", Lit(1))], modifiers=["onlyOwner"]),
                    Fn("b", [], [SAssign(Id("x"), "=", Lit(2))], modifiers=["onlyOwner"]),
                ],
            )
        ],
    )
    a, b = lower(load_ast(doc))[0].functions
    assert a.statements[0] is b.statements[0]
    assert a.statements[0].uses == frozenset({_bv("msg.sender"), _sv("owner")})


def _run_statements(*body):
    """Lowered statements of `run` in a contract with state members, next,
    a and functions slot and f."""
    _, doc = build_unit(
        "lv",
        [
            Contract(
                "Lv",
                [
                    StateVar("address[]", "members"),
                    StateVar("uint", "next"),
                    StateVar("uint[]", "a"),
                    Fn("slot", [], []),
                    Fn("f", [], []),
                    Fn("run", [("uint", "x")], list(body)),
                ],
            )
        ],
    )
    return next(f for f in lower(load_ast(doc))[0].functions if f.name == "run").statements


def test_lvalue_index_keeps_its_writes():
    # members[next++] = msg.sender;
    target = Index(Id("members"), Un("++", Id("next"), prefix=False))
    (s,) = _run_statements(SAssign(target, "=", Member(Id("msg"), "sender")))
    assert s.kind is Kind.ASSIGN
    assert s.defs == frozenset({_sv("members"), _sv("next")})
    assert s.uses == frozenset({_sv("next"), _bv("msg.sender")})


def test_lvalue_index_keeps_its_calls():
    # members[slot()] = msg.sender;
    target = Index(Id("members"), Call(Id("slot")))
    (s,) = _run_statements(SAssign(target, "=", Member(Id("msg"), "sender")))
    assert s.kind is Kind.ASSIGN
    assert s.callees == ("slot",)
    assert s.defs == frozenset({_sv("members")})


def test_lvalue_index_call_is_recorded_once():
    # a[f()].push(x); a[f()]++; a[f()] += x;
    push, inc, add = _run_statements(
        SExpr(Call(Member(Index(Id("a"), Call(Id("f"))), "push"), [Id("x")])),
        SExpr(Un("++", Index(Id("a"), Call(Id("f"))), prefix=False)),
        SAssign(Index(Id("a"), Call(Id("f"))), "+=", Id("x")),
    )
    for s in (push, inc, add):
        assert s.callees == ("f",)
        assert s.defs == frozenset({_sv("a")})
        assert _sv("a") in s.uses


@pytest.mark.parametrize(
    ("depth", "statements"), [(3000, False), (400, True)], ids=["binary_ops", "ifs"]
)
def test_lowering_refuses_nesting_deeper_than_the_recursion_limit(depth, statements):
    with pytest.raises(MalformedAst, match="nested too deeply"):
        lower(load_ast(programs.deep_doc(depth, statements)))
    shallow = lower(load_ast(programs.deep_doc(100, statements)))
    assert len(shallow[0].functions[0].statements) == (101 if statements else 1)


def test_fuzzed_documents_lower_or_are_refused():
    lowered = 0
    for seed in range(300):
        try:
            lower(load_ast(astfuzz.unit(seed)))
        except (MalformedAst, JsonError):
            continue
        lowered += 1
    # Faults are rare: most documents lower.
    assert lowered > 200


@pytest.mark.parametrize("seed", range(4))
def test_fuzzer_reshapes_lists_and_objects(monkeypatch, seed):
    monkeypatch.setattr(astfuzz, "_RESHAPE", 1.0)
    doc = {"nodes": [{"name": "a"}, 7], "body": {"statements": []}}
    astfuzz._reshape(doc, astfuzz._Gen(seed))
    # A list becomes a scalar or an object keyed by position, whose own
    # object fields become scalars; an object becomes a scalar.
    assert doc["nodes"] in astfuzz._SCALARS or (
        doc["nodes"].keys() == {"0", "1"} and doc["nodes"]["0"] in astfuzz._SCALARS
    )
    assert doc["body"] in astfuzz._SCALARS


def test_member_access_on_a_non_object_reads_nothing():
    # next = msg.sender; a.push(x); with both member bases replaced by
    # non-objects.
    _, doc = build_unit(
        "odd",
        [
            Contract(
                "Odd",
                [
                    StateVar("uint", "next"),
                    StateVar("uint[]", "a"),
                    Fn(
                        "run",
                        [("uint", "x")],
                        [
                            SAssign(Id("next"), "=", Member(Id("msg"), "sender")),
                            SExpr(Call(Member(Id("a"), "push"), [Id("x")])),
                            SExpr(Call(Member(Id("a"), "foo"), [Id("x")])),
                        ],
                    ),
                ],
            )
        ],
    )
    body = doc["sources"]["odd.sol"]["ast"]["nodes"][-1]["nodes"][-1]["body"]
    assign, push, call = (s["expression"] for s in body["statements"])
    assign["rightHandSide"]["expression"] = [1]
    push["expression"]["expression"] = None
    call["expression"]["expression"] = "a"
    s1, s2, s3 = lower(load_ast(doc))[0].functions[0].statements
    assert (s1.defs, s1.uses) == (frozenset({_sv("next")}), NO_REFS)
    assert (s2.defs, s2.uses, s2.calls) == (NO_REFS, frozenset({_pv("x")}), ())
    assert s3.callees == (".foo",)


def _hierarchy(**bases: str) -> dict[str, ContractModel]:
    """Contract models from name="Base1 Base2" (Solidity `is` order)."""
    return {n: ContractModel(n, inherits=b.split()) for n, b in bases.items()}


def _python_mro(models: dict[str, ContractModel], name: str) -> tuple[str, ...]:
    """Python's C3 MRO with each base list reversed, as a reference."""
    classes: dict[str, type] = {}

    def cls(n: str) -> type:
        if n not in classes:
            bases = tuple(cls(b) for b in reversed(models[n].inherits)) or (object,)
            classes[n] = type(n, bases, {})
        return classes[n]

    return tuple(c.__name__ for c in cls(name).__mro__ if c is not object)


def test_linearization_is_c3_with_rightmost_base_most_derived():
    models = _hierarchy(
        O="", A="O", B="O", C="O", D="O", E="O",
        K1="C B A", K2="E B D", K3="A D", Z="K3 K2 K1",
        Diamond="A B",
    )
    lin = linearize(models)
    assert lin["Diamond"] == ("Diamond", "B", "A", "O")
    assert lin["Z"] == ("Z", "K1", "K2", "K3", "D", "A", "B", "C", "E", "O")
    for name in models:
        assert lin[name] == _python_mro(models, name), name
    # Bases declared outside the unit are skipped.
    assert linearize(_hierarchy(A="Ownable", B="A Missing")) == {
        "A": ("A",),
        "B": ("B", "A"),
    }


def test_first_declaration_wins_within_one_contract():
    first, second = VariableDecl("x", "uint"), VariableDecl("x", "address")
    names = Names([ContractModel("K", state_vars=[first, second])])
    assert names.state("K", "x") == ("K", first)
    assert names.state("K", "y") is None


def _ref_sets(models: list[ContractModel]) -> list[frozenset[VarRef]]:
    return [
        refs
        for m in models
        for f in m.functions
        for st in f.statements
        for refs in (st.defs, st.uses, *(c.arg_reads for c in st.calls))
    ]


def test_lower_interns_references_and_sets_per_call():
    u = fixutil.load_unit("simple_ponzi")
    first, second = lower(u), lower(u)
    sets = _ref_sets(first)
    # One object per distinct reference, and per distinct set of them.
    canonical_refs: dict[VarRef, VarRef] = {}
    canonical_sets: dict[frozenset, frozenset] = {}
    for refs in sets:
        assert canonical_sets.setdefault(refs, refs) is refs
        for ref in refs:
            assert canonical_refs.setdefault(ref, ref) is ref
    assert any(not refs for refs in sets)
    assert all(refs is NO_REFS for refs in sets if not refs)
    # Each call interns on its own: nothing is shared through a global.
    later = {ref for refs in _ref_sets(second) for ref in refs}
    assert later == set(canonical_refs)
    assert all(ref is not canonical_refs[ref] for ref in later)


def test_varref_keeps_value_semantics():
    a, b = VarRef(Scope.STATE, "x"), _sv("x")
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != _lv("x") and str(a) == "state:x"
    assert repr(a) == "VarRef(scope=<Scope.STATE: 'state'>, name='x')"
    assert sorted([_sv("b"), _lv("z"), _sv("a")]) == [_lv("z"), _sv("a"), _sv("b")]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.name = "y"
    assert pickle.loads(pickle.dumps(a)) == a
