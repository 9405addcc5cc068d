"""Tests for the ``lower-to-llvm`` pipeline and the ``cf`` dialect.

Covers the lowering subsystem end to end:

* conversion-pass shape tests (``scf.if``/``scf.for``/``scf.while`` →
  ``cf`` CFG, memref accesses → ``llvm.getelementptr``/``load``/
  ``store``, ``func.func`` → ``llvm.func``);
* differential equivalence of the fully lowered module against the
  source — all listings, GEMM, and the internalizing composition
  (``sycl-mlir`` *then* ``lower-to-llvm``) — across all execution tiers;
* CFG mechanics: ``cf`` print/parse round trips, multi-block dominance
  in the verifier, the interpreter's branch-dispatch loop;
* the JIT tier's ``scf.while`` support (results *and* counters match
  the interpreter).
"""

import pytest

from benchmarks.kernels import build_vecadd_module
from repro.dialects import arith, cf, func, memref, scf
from repro.dialects.llvm import LLVMFuncOp
from repro.interp import ExecutionSpec, run_differential
from repro.interp.differential import _executable_functions, synthesize_spec
from repro.interp.engine import ExecutionEngine
from repro.interp.memory import MemRefStorage, TrapError
from repro.ir import (
    Block,
    IndexType,
    MemRefType,
    VerificationError,
    f32,
    i1,
    i32,
    parse_module,
    verify,
)
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.printer import print_op
from repro.transforms import build_named_pipeline

from .filecheck import filecheck
from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    listing_execution_specs,
    wrap_in_module,
)


def index():
    return IndexType()


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


def _lower(module):
    build_named_pipeline("lower-to-llvm").run(module)
    return module


def _dialect_histogram(module):
    counts = {}
    for op in module.walk():
        dialect = op.name.split(".")[0]
        counts[dialect] = counts.get(dialect, 0) + 1
    return counts


class TestConversionShape:
    def test_functions_become_llvm_funcs(self):
        module = _lower(_listing_module())
        kinds = [type(op).__name__ for op in module.body.operations]
        assert all(isinstance(op, LLVMFuncOp)
                   for op in module.body.operations), kinds

    def test_no_structured_control_flow_survives(self):
        module = _lower(_listing_module())
        histogram = _dialect_histogram(module)
        assert "scf" not in histogram
        assert "affine" not in histogram
        assert "func" not in histogram
        assert histogram.get("cf", 0) > 0
        assert histogram.get("llvm", 0) > 0

    def test_if_becomes_diamond(self):
        module = _lower(wrap_in_module(build_listing1_function()[0]))
        filecheck(print_op(module), '''
            CHECK: "cf.cond_br"(%cond)
            CHECK-SAME: [^bb1, ^bb2]
            CHECK: ^bb1
            CHECK: "cf.br"()
            CHECK-SAME: [^bb3]
            CHECK: ^bb2
            CHECK: "cf.br"()
            CHECK-SAME: [^bb3]
            CHECK: ^bb3
            CHECK: "llvm.return"()
        ''')

    def test_memref_accesses_become_gep_load_store(self):
        module = _lower(wrap_in_module(build_listing1_function()[0]))
        text = print_op(module)
        filecheck(text, '''
            CHECK: "builtin.unrealized_conversion_cast"(%ptr1)
            CHECK-SAME: (memref<i32>) -> (!llvm.ptr<i32>)
            CHECK: "llvm.getelementptr"
            CHECK: "llvm.store"
        ''')
        assert '"memref.store"' not in text
        assert '"memref.load"' not in text

    def test_for_loop_becomes_header_cfg(self):
        module = wrap_in_module(build_listing3_function()[0])
        _lower(module)
        filecheck(print_op(module), '''
            CHECK: "cf.br"
            CHECK: "llvm.icmp"
            CHECK: "cf.cond_br"
        ''')

    def test_conversion_statistics_are_reported(self):
        from repro.transforms import CompileReport

        report = CompileReport()
        module = _listing_module()
        build_named_pipeline("lower-to-llvm").run(
            module, report=report)
        stats = {(stat.pass_name, stat.name): stat.value
                 for stat in report.statistics}
        assert stats.get(("convert-scf-to-cf", "expanded"), 0) > 0
        assert stats.get(("convert-memref-to-llvm", "accesses"), 0) > 0


class TestDifferential:
    def test_listings_survive_lowering(self):
        report = run_differential(_listing_module(), "lower-to-llvm",
                                  specs=listing_execution_specs())
        assert report.executed == ["foo", "mem_acc", "non_uniform"]
        assert report.skipped == {}

    def test_gemm_survives_lowering(self):
        module, specs = build_gemm_module()
        report = run_differential(module, "lower-to-llvm", specs=specs)
        assert report.executed == ["gemm"]

    def test_internalized_gemm_survives_lowering(self):
        """The paper pipeline first, then the lowering — the lowered
        module must still compute what the *original* source did."""
        module, specs = build_gemm_module()
        reference = print_op(module)
        build_named_pipeline("sycl-mlir").run(module)
        assert print_op(module) != reference  # internalization fired
        report = run_differential(module, "lower-to-llvm", specs=specs)
        assert report.executed == ["gemm"]
        histogram = _dialect_histogram(module)
        assert "scf" not in histogram

    @pytest.mark.parametrize("tier", ["interp", "jit", "vector", "auto"])
    def test_lowering_verifies_under_every_tier(self, tier):
        report = run_differential(_listing_module(), "lower-to-llvm",
                                  specs=listing_execution_specs(),
                                  tier=tier)
        assert report.executed == ["foo", "mem_acc", "non_uniform"]
        if tier not in ("jit", "auto"):
            return
        # The lowered CFGs compile on the JIT itself (no fallback) and
        # match the interpreter bit for bit, counters included.
        _assert_lowered_runs_on_jit(_listing_module(),
                                    listing_execution_specs(), tier)
        gemm, gemm_specs = build_gemm_module()
        build_named_pipeline("sycl-mlir").run(gemm)
        _assert_lowered_runs_on_jit(gemm, gemm_specs, tier)
        vecadd, entry, vecadd_spec = build_vecadd_module(64)
        _assert_lowered_runs_on_jit(vecadd, {entry: vecadd_spec}, tier)


def _assert_lowered_runs_on_jit(module, specs, tier):
    """Lower ``module``, then execute every function on ``tier`` and on
    the interpreter: each must run with ``tier == "jit"`` and agree
    exactly on results, memory and ``ExecutionCounters``."""
    lowered = _lower(module)
    assert "scf" not in _dialect_histogram(lowered)
    for function in _executable_functions(lowered):
        resolved = synthesize_spec(function, specs.get(function.sym_name))
        reference = ExecutionEngine(lowered, tier="interp").execute(
            function, resolved)
        engine = ExecutionEngine(lowered, tier=tier)
        run = engine.execute(function, resolved)
        assert run.tier == "jit", engine.remarks
        assert run.results == reference.results
        assert run.memory == reference.memory
        assert run.counters == reference.counters


class TestCFMechanics:
    def _diamond(self):
        f = func.FuncOp.build("pick", [i1(), i32(), i32()], [i32()])
        cond, x, y = f.arguments
        entry = f.body
        exit_block = Block([i32()])
        then_block = Block()
        else_block = Block()
        for block in (then_block, else_block, exit_block):
            f.regions[0].add_block(block)
        entry.append(cf.CondBranchOp.build(cond, then_block, (),
                                           else_block, ()))
        then_block.append(cf.BranchOp.build(exit_block, [x]))
        else_block.append(cf.BranchOp.build(exit_block, [y]))
        exit_block.append(func.ReturnOp.build([exit_block.arguments[0]]))
        return f

    def test_cf_round_trips_through_printer_and_parser(self):
        module = wrap_in_module(self._diamond())
        verify(module)
        text = print_op(module)
        back = parse_module(text)
        verify(back)
        assert print_op(back) == text

    def test_interpreter_follows_branches(self):
        engine = ExecutionEngine(wrap_in_module(self._diamond()),
                                 tier="interp")
        assert engine.call("pick", [True, 10, 20]) == [10]
        assert engine.call("pick", [False, 10, 20]) == [20]

    def test_branch_operand_count_is_verified(self):
        f = func.FuncOp.build("bad", [i32()], [])
        target = Block([i32(), i32()])
        f.regions[0].add_block(target)
        f.body.append(
            cf.BranchOp.build(target, [f.arguments[0]]))
        target.append(func.ReturnOp.build())
        with pytest.raises(VerificationError):
            verify(wrap_in_module(f))

    def test_value_from_non_dominating_block_is_rejected(self):
        """A value defined in one arm of a diamond is not visible in the
        join block — classic CFG dominance, not lexical scoping."""
        f = func.FuncOp.build("bad_dom", [i1()], [])
        cond, = f.arguments
        then_block, else_block, join = Block(), Block(), Block()
        for block in (then_block, else_block, join):
            f.regions[0].add_block(block)
        f.body.append(cf.CondBranchOp.build(
            cond, then_block, (), else_block, ()))
        b = Builder(InsertionPoint.at_end(then_block))
        c1 = b.insert(arith.ConstantOp.build(1, i32()))
        then_block.append(cf.BranchOp.build(join))
        else_block.append(cf.BranchOp.build(join))
        # Illegal: uses %c1 which only dominates along the then-edge.
        store_to = memref.AllocaOp.build(MemRefType((), i32()))
        join.append(store_to)
        join.append(memref.StoreOp.build(c1.result, store_to.results[0]))
        join.append(func.ReturnOp.build())
        with pytest.raises(VerificationError):
            verify(wrap_in_module(f))

    def test_dominating_definition_is_accepted(self):
        """The same shape with the constant hoisted to the entry block
        verifies: the entry dominates every block."""
        f = func.FuncOp.build("good_dom", [i1()], [])
        cond, = f.arguments
        b = Builder(InsertionPoint.at_end(f.body))
        c1 = b.insert(arith.ConstantOp.build(1, i32()))
        alloca = b.insert(memref.AllocaOp.build(MemRefType((), i32())))
        then_block, else_block, join = Block(), Block(), Block()
        for block in (then_block, else_block, join):
            f.regions[0].add_block(block)
        f.body.append(cf.CondBranchOp.build(
            cond, then_block, (), else_block, ()))
        then_block.append(cf.BranchOp.build(join))
        else_block.append(cf.BranchOp.build(join))
        join.append(memref.StoreOp.build(c1.result, alloca.results[0]))
        join.append(func.ReturnOp.build())
        verify(wrap_in_module(f))

    def test_block_dominates(self):
        from repro.ir.dominance import block_dominates

        f = self._diamond()
        entry, then_block, else_block, exit_block = f.regions[0].blocks
        assert block_dominates(entry, exit_block)
        assert block_dominates(entry, then_block)
        assert not block_dominates(then_block, exit_block)
        assert not block_dominates(then_block, else_block)
        assert block_dominates(exit_block, exit_block)


def _build_while_function():
    """``collatz_steps(n)``: iteration count of the Collatz map — a loop
    no ``scf.for`` can express (data-dependent trip count)."""
    f = func.FuncOp.build("collatz_steps", [index()], [index()])
    b = Builder(InsertionPoint.at_end(f.body))
    c0 = b.insert(arith.ConstantOp.build(0, index()))
    loop = b.insert(scf.WhileOp.build([f.arguments[0], c0.result],
                                      [index(), index()]))
    before = Builder(InsertionPoint.at_end(loop.before_block))
    n, steps = loop.before_block.arguments
    c1 = before.insert(arith.ConstantOp.build(1, index()))
    more = before.insert(arith.CmpIOp.build("sgt", n, c1.result))
    before.insert(scf.ConditionOp.build(more.result, [n, steps]))
    after = Builder(InsertionPoint.at_end(loop.after_block))
    n, steps = loop.after_block.arguments
    c1a = after.insert(arith.ConstantOp.build(1, index()))
    c2 = after.insert(arith.ConstantOp.build(2, index()))
    c3 = after.insert(arith.ConstantOp.build(3, index()))
    rem = after.insert(arith.RemSIOp.build(n, c2.result))
    c0a = after.insert(arith.ConstantOp.build(0, index()))
    is_even = after.insert(arith.CmpIOp.build("eq", rem.result, c0a.result))
    if_op = after.insert(scf.IfOp.build(is_even.result, [index()],
                                        with_else=True))
    tb = Builder(InsertionPoint.at_end(if_op.then_block))
    halved = tb.insert(arith.DivSIOp.build(n, c2.result))
    tb.insert(scf.YieldOp.build([halved.result]))
    eb = Builder(InsertionPoint.at_end(if_op.else_block))
    tripled = eb.insert(arith.MulIOp.build(n, c3.result))
    bumped = eb.insert(arith.AddIOp.build(tripled.result, c1a.result))
    eb.insert(scf.YieldOp.build([bumped.result]))
    next_steps = after.insert(arith.AddIOp.build(steps, c1a.result))
    after.insert(scf.YieldOp.build([if_op.results[0],
                                    next_steps.result]))
    b.insert(func.ReturnOp.build([loop.results[1]]))
    return f


class TestJITWhile:
    @pytest.mark.parametrize("n,expected", [(1, 0), (6, 8), (27, 111)])
    def test_jit_matches_interpreter(self, n, expected):
        spec = ExecutionSpec(scalars={"arg0": n})
        runs = {}
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(
                wrap_in_module(_build_while_function()), tier=tier)
            runs[tier] = engine.run("collatz_steps", spec)
        assert runs["jit"].tier == "jit"  # compiled, no fallback
        assert runs["interp"].results == [expected]
        assert runs["jit"].results == runs["interp"].results
        assert runs["jit"].counters == runs["interp"].counters

    def test_while_respects_the_step_budget(self):
        from repro.interp.memory import TrapError

        engine = ExecutionEngine(
            wrap_in_module(_build_while_function()), tier="jit",
            max_steps=50)
        with pytest.raises((TrapError, Exception)) as excinfo:
            engine.run("collatz_steps", ExecutionSpec(scalars={"arg0": 27}))
        assert "step budget" in str(excinfo.value)

    def test_generated_source_shape(self):
        from repro.interp.jit import _Emitter

        source = _Emitter(_build_while_function(), "function").emit()
        filecheck(source, '''
            CHECK: while True:
            CHECK: break
        ''')

    def test_while_differential_under_lowering(self):
        """scf.while also lowers to a CFG and survives differentially."""
        module = wrap_in_module(_build_while_function())
        report = run_differential(
            module, "lower-to-llvm",
            specs={"collatz_steps": ExecutionSpec(scalars={"arg0": 27})})
        assert report.executed == ["collatz_steps"]
        _lower(module)  # run_differential compiles a copy
        assert '"scf.while"' not in print_op(module)
        assert '"cf.cond_br"' in print_op(module)


# ---------------------------------------------------------------------------
# CFG functions on the JIT tier: block dispatch, traps, budget, faults
# ---------------------------------------------------------------------------

def _build_self_loop():
    """``^entry: cf.br ^spin; ^spin: cf.br ^spin`` — never returns."""
    f = func.FuncOp.build("spin", [], [])
    spin = Block()
    f.regions[0].add_block(spin)
    f.body.append(cf.BranchOp.build(spin))
    spin.append(cf.BranchOp.build(spin))
    return f


def _build_load_at():
    """``load_at(mem, i) = mem[i]``; lowers to ``llvm.getelementptr`` +
    ``llvm.load``."""
    f = func.FuncOp.build("load_at", [MemRefType((4,), f32()), index()],
                          [f32()])
    mem, position = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    load = b.insert(memref.LoadOp.build(mem, [position]))
    b.insert(func.ReturnOp.build([load.result]))
    return f


def _lowered_internalized_gemm():
    module, specs = build_gemm_module(size=4, work_group=2)
    build_named_pipeline("sycl-mlir").run(module)
    lowered = _lower(module)
    function = lowered.lookup_symbol("gemm")
    return lowered, function, synthesize_spec(function, specs["gemm"])


class TestCFGOnJIT:
    def test_self_loop_hits_the_step_budget(self):
        from repro.interp.jit import _Emitter

        function = _build_self_loop()
        module = wrap_in_module(function)
        verify(module)
        _Emitter(function, "function").emit()  # compiles: no fallback
        engine = ExecutionEngine(module, tier="jit", max_steps=1000)
        with pytest.raises(TrapError, match="step budget"):
            engine.call("spin", [])
        assert engine.remarks == []

    def test_out_of_bounds_pointer_load_traps_like_the_interpreter(self):
        module = _lower(wrap_in_module(_build_load_at()))
        assert any(op.name == "llvm.load" for op in module.walk())
        messages = {}
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(module, tier=tier)
            storage = MemRefStorage((4,), f32())
            storage.store_flat(3, 2.5)
            assert engine.call("load_at", [storage, 3]) == [2.5]
            for position in (4, -1):
                with pytest.raises(TrapError) as excinfo:
                    engine.call("load_at", [storage, position])
                messages[tier, position] = str(excinfo.value)
            assert engine.remarks == []
        for position in (4, -1):
            assert messages["jit", position] == messages["interp", position]

    @pytest.mark.parametrize("plan,remark", [
        ("jit.compile=corrupt", "degraded"),
        ("jit.exec=transient", "injected jit execution fault"),
    ])
    def test_faults_degrade_lowered_kernels(self, monkeypatch, plan, remark):
        lowered, function, resolved = _lowered_internalized_gemm()
        baseline = ExecutionEngine(lowered, tier="interp").execute(
            function, resolved)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        engine = ExecutionEngine(lowered, tier="jit")
        execution = engine.execute(function, resolved)
        assert execution.tier == "interp"
        assert any(remark in text for text in engine.remarks), \
            engine.remarks
        assert execution.memory == baseline.memory
        assert execution.counters == baseline.counters

    def test_llvm_ops_share_the_arith_emission(self, monkeypatch):
        """One definition per op: a miscompile seeded in the arith table
        reaches lowered code (``llvm.fadd`` compiles through it), and the
        cross-tier comparison sees it."""
        from repro.interp.jit import _Emitter

        monkeypatch.setitem(_Emitter.BIN_FLOAT, "arith.addf", "-")
        lowered, function, resolved = _lowered_internalized_gemm()
        before = ExecutionEngine(lowered, tier="interp").execute(
            function, resolved)
        after = ExecutionEngine(lowered, tier="jit").execute(
            function, resolved)
        assert after.tier == "jit"
        assert after.memory != before.memory

    def test_disk_cached_cfg_executable_runs(self, tmp_path):
        from repro.interp.jit import ExecutableCache, compile_executable
        from repro.transforms.disk_cache import DiskCache

        lowered, function, resolved = _lowered_internalized_gemm()
        warm = ExecutableCache(disk=DiskCache(str(tmp_path)))
        compile_executable(function, "nd-barrier", cache=warm)
        assert warm.stats["disk_stores"] == 1
        cold = ExecutableCache(disk=DiskCache(str(tmp_path)))
        engine = ExecutionEngine(lowered, tier="jit", executable_cache=cold)
        execution = engine.execute(function, resolved)
        assert cold.stats["disk_hits"] == 1
        assert execution.tier == "jit"
        reference = ExecutionEngine(lowered, tier="interp").execute(
            function, resolved)
        assert execution.memory == reference.memory
        assert execution.counters == reference.counters

    def test_barriers_yield_inside_the_dispatch_loop(self):
        from repro.interp.jit import _Emitter

        _, function, _ = _lowered_internalized_gemm()
        source = _Emitter(function, "nd-barrier").emit()
        filecheck(source, '''
            CHECK: def _item(_g, _l):
            CHECK: _blk = 0
            CHECK: while True:
            CHECK: if _blk == 0:
            CHECK: yield _BARRIER
            CHECK: continue
        ''')


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_modules_lower_onto_the_jit(seed):
    """Synthetic modules (loop nests, kernels, scalar code) lowered to
    CFGs: every function compiles on the JIT and matches the
    interpreter exactly."""
    from benchmarks.generate import GeneratorConfig, generate_module

    module = generate_module(GeneratorConfig(
        num_ops=150, nesting_depth=1 + seed % 2, num_kernels=1 + seed % 2,
        dead_chain_depth=4, seed=seed))
    _assert_lowered_runs_on_jit(module, {}, "jit")
    assert any(op.name == "cf.cond_br" for op in module.walk())


def test_lowered_divf_by_zero_keeps_its_infinity():
    """``llvm.fdiv`` shares divf's evaluator, IEEE zero-divide included:
    lowering must not turn ``1.0 / 0.0`` from ``inf`` into NaN."""
    f = func.FuncOp.build("ratio", [f32(), f32()], [f32()])
    a, b = f.arguments
    builder = Builder(InsertionPoint.at_end(f.body))
    quotient = builder.insert(arith.DivFOp.build(a, b))
    builder.insert(func.ReturnOp.build([quotient.result]))
    structured = wrap_in_module(f)
    lowered = _lower(structured.clone({}))
    assert any(op.name == "llvm.fdiv" for op in lowered.walk())
    for module in (structured, lowered):
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(module, tier=tier)
            assert engine.call("ratio", [-1.0, 0.0]) == [float("-inf")]
            assert engine.remarks == []


@pytest.mark.parametrize("build,args", [
    (lambda a: arith.DivSIOp.build(a[0], a[1]), [7, 0]),
    (lambda a: arith.RemUIOp.build(a[0], a[1]), [7, 0]),
    (lambda a: arith.ShLIOp.build(a[0], a[1]), [7, 99]),
    (lambda a: arith.ShRSIOp.build(a[0], a[1]), [7, -1]),
    (lambda a: arith.FPToSIOp.build(a[0], index()), [float("nan"), 0]),
], ids=["divsi", "remui", "shli", "shrsi", "fptosi"])
@pytest.mark.parametrize("lowered", [False, True])
def test_trap_messages_match_the_interpreter(build, args, lowered):
    """The JIT names the trapping op (its ``llvm`` name once lowered)
    and its result type exactly as the interpreter's evaluators do."""
    operand = f32() if isinstance(args[0], float) else index()
    f = func.FuncOp.build("trap", [operand, index()], [index()])
    builder = Builder(InsertionPoint.at_end(f.body))
    result = builder.insert(build(f.arguments))
    builder.insert(func.ReturnOp.build([result.result]))
    module = wrap_in_module(f)
    if lowered:
        _lower(module)
    messages = []
    for tier in ("interp", "jit"):
        engine = ExecutionEngine(module, tier=tier)
        with pytest.raises(TrapError) as excinfo:
            engine.call("trap", args)
        assert engine.remarks == []
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert ("'llvm." in messages[0]) is lowered
