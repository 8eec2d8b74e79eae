"""The facts ``Procedure.finalize()`` stamps on the statement tree
against the pure functions they cache.

The pure functions are the reference: every stored subscript and loop
bound form must equal :func:`affine_form` of its node, every stored
flop count :func:`flops_of_expr` of its expression, and
``all_stmts()`` the recursive ``walk()`` order — on the kernels, on the
seed-0 fuzz programs, and again after a transform changed the tree
(so a fact left over from before the change fails here).
"""

import pickle
from collections import Counter

import pytest

from repro.core import CompilerOptions, PassManager, build_context, compile_source
from repro.core.expansion import expand_scalars
from repro.fuzz import generate
from repro.ir import ArrayElemRef, AssignStmt, IfStmt, LoopStmt, parse_and_build
from repro.ir import expr as expr_module
from repro.ir.expr import affine_form
from repro.ir.stmt import Stmt
from repro.model import flops_of_expr
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.programs.figures import figure1_source

KERNELS = {
    "tomcatv": lambda: tomcatv_source(n=17, niter=2, procs=4),
    "dgefa": lambda: dgefa_source(n=12, procs=4),
    "appsp": lambda: appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
}


def walked(proc):
    return [s for top in proc.body for s in top.walk()]


def array_refs(stmt):
    """Every array reference of ``stmt``, found from its expressions."""
    if isinstance(stmt, AssignStmt):
        exprs = [stmt.lhs, stmt.rhs]
    elif isinstance(stmt, IfStmt):
        exprs = [stmt.cond]
    elif isinstance(stmt, LoopStmt):
        exprs = [e for e in (stmt.low, stmt.high, stmt.step) if e is not None]
    else:
        exprs = list(getattr(stmt, "args", ()))
    return [r for e in exprs for r in e.refs() if isinstance(r, ArrayElemRef)]


def assert_facts_are_current(proc):
    stmts = walked(proc)
    assert list(proc.all_stmts()) == stmts
    assert all(a is b for a, b in zip(proc.all_stmts(), stmts))
    for stmt in stmts:
        for ref in array_refs(stmt):
            assert ref.forms == tuple(affine_form(s) for s in ref.subscripts), ref
        if isinstance(stmt, LoopStmt):
            assert stmt.low_form == affine_form(stmt.low), stmt
            assert stmt.high_form == affine_form(stmt.high), stmt
            assert stmt.step_form == (
                None if stmt.step is None else affine_form(stmt.step)
            ), stmt
        elif isinstance(stmt, AssignStmt):
            assert stmt.flops == flops_of_expr(stmt.rhs), stmt
        elif isinstance(stmt, IfStmt):
            assert stmt.flops == flops_of_expr(stmt.cond), stmt


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_facts_match_the_pure_functions(name):
    proc = parse_and_build(KERNELS[name]())
    assert_facts_are_current(proc)
    compiled = compile_source(KERNELS[name]())
    assert_facts_are_current(compiled.proc)


def stored_forms(proc):
    """Every stored subscript and bound form, in tree order."""
    for stmt in proc.all_stmts():
        for ref in array_refs(stmt):
            yield from ref.forms
        if isinstance(stmt, LoopStmt):
            yield from (stmt.low_form, stmt.high_form, stmt.step_form)


def assert_equal_forms_are_one_object(forms):
    distinct = []
    for form in forms:
        same = [seen for seen in distinct if seen == form]
        assert all(seen is form for seen in same), form
        if not same:
            distinct.append(form)
    assert len(distinct) < len(forms)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_equal_forms_are_one_object_and_pickle_so(name):
    proc = compile_source(KERNELS[name]()).proc
    forms = [f for f in stored_forms(proc) if f is not None]
    assert_equal_forms_are_one_object(forms)
    revived = pickle.loads(pickle.dumps(proc, pickle.HIGHEST_PROTOCOL))
    again = [f for f in stored_forms(revived) if f is not None]
    assert again == forms
    assert_equal_forms_are_one_object(again)


def test_fuzz_program_facts_match_the_pure_functions():
    for k in range(150):
        assert_facts_are_current(parse_and_build(generate(k).emit(3)))


def test_all_stmts_does_not_walk(monkeypatch):
    proc = parse_and_build(KERNELS["dgefa"]())
    stmts = walked(proc)

    def refuse(self):
        raise AssertionError("all_stmts() walked the tree")

    monkeypatch.setattr(Stmt, "walk", refuse)
    assert list(proc.all_stmts()) == stmts


def test_facts_follow_induction_substitution():
    """The substitution rewrites subscripts of existing references in
    place (Fig. 1's ``D(m)`` becomes ``D(i + 1)``)."""
    proc = parse_and_build(figure1_source(n=16))
    before = {
        ref.ref_id: ref.forms
        for stmt in proc.all_stmts()
        for ref in array_refs(stmt)
    }
    ctx = build_context(proc)
    assert ctx.inductions and proc.ir_epoch == 2
    after = {
        ref.ref_id: ref.forms
        for stmt in proc.all_stmts()
        for ref in array_refs(stmt)
    }
    assert any(before.get(k) not in (None, v) for k, v in after.items())
    assert_facts_are_current(proc)


def test_facts_follow_scalar_expansion():
    source = (
        "PROGRAM SM\n"
        "  PARAMETER (n = 32)\n"
        "  REAL U(n), V(n)\n"
        "  REAL t\n"
        "!HPF$ PROCESSORS P(4)\n"
        "!HPF$ ALIGN V(i) WITH U(i)\n"
        "!HPF$ DISTRIBUTE (BLOCK) :: U\n"
        "  DO i = 2, n - 1\n"
        "    t = U(i - 1) + 2.0 * U(i) + U(i + 1)\n"
        "    V(i) = 0.25 * t\n"
        "  END DO\n"
        "END PROGRAM\n"
    )
    result = expand_scalars(source, num_procs=4)
    assert result.expanded == {"T": "T_XP"}
    assert_facts_are_current(result.proc)


def test_each_subscript_form_is_evaluated_once_per_epoch(monkeypatch):
    """TOMCATV's processor-count family × three strategies on one
    manager: 15 compiles of one tree, and one evaluation of each
    subscript's and bound's form per ``finalize()``."""
    evaluated = []
    pure = expr_module._affine
    depth = 0

    def counting(expr):
        nonlocal depth
        if depth == 0:
            evaluated.append(expr)  # held: ids stay unique
        depth += 1
        try:
            return pure(expr)
        finally:
            depth -= 1

    monkeypatch.setattr(expr_module, "_affine", counting)
    manager = PassManager()
    trees = {}
    for p in (1, 2, 4, 8, 16):
        for strategy in ("selected", "producer", "replication"):
            compiled = compile_source(
                tomcatv_source(n=33, niter=1, procs=p),
                CompilerOptions(strategy=strategy),
                manager=manager,
            )
            trees[id(compiled.proc)] = compiled.proc
    (proc,) = trees.values()
    counts = Counter(id(e) for e in evaluated)
    facts = []
    for stmt in proc.all_stmts():
        for ref in array_refs(stmt):
            facts.extend(ref.subscripts)
        if isinstance(stmt, LoopStmt):
            facts.extend(
                e for e in (stmt.low, stmt.high, stmt.step) if e is not None
            )
    assert facts
    assert {counts[id(e)] for e in facts} == {proc.ir_epoch}
    others = len(evaluated) - sum(counts[id(e)] for e in facts)
    assert others <= len(list(proc.assignments()))  # induction's rhs checks
