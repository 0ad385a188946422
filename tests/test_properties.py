"""Property-based tests (hypothesis) on core invariants."""

import struct

from hypothesis import given, settings, strategies as st

from repro.analysis import (CFGView, branch_probabilities, compute_dominators,
                            find_natural_loops, immediate_dominators,
                            loop_depths, reachable_blocks,
                            verify_machine_program)
from repro.frontend.lexer import tokenize
from repro.irgen.lowering import bits_to_float, float_to_bits
from repro.machine.frame import FrameLayout
from repro.passes.constant_folding import evaluate_condition, fold_binop
from repro.placement.cost_model import PlacementCostModel
from repro.placement.parameters import BlockParameters
from repro.sim import Simulator
from repro.sim.superblock import HOT_THRESHOLD
from repro.transform.relocation import apply_placement
from tests.conftest import compile_and_run, compile_program

int32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
small_int = st.integers(min_value=0, max_value=200)


def signed(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


# --------------------------------------------------------------------------- #
# Constant folding matches 32-bit two's-complement semantics
# --------------------------------------------------------------------------- #
@given(int32, int32, st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]))
def test_fold_binop_matches_reference(a, b, op):
    reference = {
        "add": (a + b), "sub": (a - b), "mul": (a * b),
        "and": a & b, "or": a | b, "xor": a ^ b,
    }[op] & 0xFFFFFFFF
    assert fold_binop(op, a, b) == reference


@given(int32, st.integers(min_value=0, max_value=31))
def test_fold_shifts_match_reference(a, amount):
    assert fold_binop("shl", a, amount) == (a << amount) & 0xFFFFFFFF
    assert fold_binop("lshr", a, amount) == (a >> amount)
    assert fold_binop("ashr", a, amount) == (signed(a) >> amount) & 0xFFFFFFFF


@given(int32, int32)
def test_condition_evaluation_consistency(a, b):
    assert evaluate_condition("eq", a, b) == (a == b)
    assert evaluate_condition("lt", a, b) == (signed(a) < signed(b))
    assert evaluate_condition("lo", a, b) == (a < b)
    # Trichotomy.
    assert evaluate_condition("lt", a, b) + evaluate_condition("gt", a, b) + \
        evaluate_condition("eq", a, b) == 1


# --------------------------------------------------------------------------- #
# Float bit conversions round-trip
# --------------------------------------------------------------------------- #
@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_float_bits_roundtrip(value):
    assert bits_to_float(float_to_bits(value)) == struct.unpack(
        "<f", struct.pack("<f", value))[0]


# --------------------------------------------------------------------------- #
# Lexer never loses or invents tokens for well-formed integer expressions
# --------------------------------------------------------------------------- #
@given(st.lists(small_int, min_size=1, max_size=8))
def test_lexer_token_count_on_sums(values):
    source = " + ".join(str(v) for v in values)
    tokens = tokenize(source)
    # n integers, n-1 plus signs, 1 EOF
    assert len(tokens) == 2 * len(values)


# --------------------------------------------------------------------------- #
# Frame layout invariants
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=64),
                          st.sampled_from([4, 8])), min_size=1, max_size=12))
def test_frame_layout_offsets_do_not_overlap(objects):
    layout = FrameLayout()
    names = []
    for index, (size, align) in enumerate(objects):
        names.append((f"obj{index}", size))
        layout.add(f"obj{index}", size, align)
    intervals = sorted((layout.offset_of(name), layout.offset_of(name) + size)
                       for name, size in names)
    for (start_a, end_a), (start_b, _) in zip(intervals, intervals[1:]):
        assert end_a <= start_b or start_a == start_b  # no overlap
    assert layout.aligned_size() >= max(end for _, end in intervals)
    assert layout.aligned_size() % 8 == 0


# --------------------------------------------------------------------------- #
# Dominator / loop analyses on random CFGs
# --------------------------------------------------------------------------- #
@st.composite
def random_cfg(draw):
    """An arbitrary CFG: entry ``b0``, up to 2 successors per block.

    Deliberately unconstrained — self-loops, unreachable blocks, duplicate
    edges and irreducible regions all occur, which is exactly what the
    dominator and loop analyses must survive.
    """
    count = draw(st.integers(min_value=1, max_value=10))
    names = [f"b{i}" for i in range(count)]
    block_index = st.integers(min_value=0, max_value=count - 1)
    successors = {
        name: [names[i] for i in draw(st.lists(block_index, max_size=2))]
        for name in names
    }
    return CFGView(entry="b0", successors=successors)


@given(random_cfg())
@settings(max_examples=120, deadline=None)
def test_entry_dominates_every_reachable_block(cfg):
    reachable = reachable_blocks(cfg)
    dominators = compute_dominators(cfg)
    assert set(dominators) == reachable  # unreachable blocks are omitted
    assert dominators[cfg.entry] == {cfg.entry}
    for name, doms in dominators.items():
        assert cfg.entry in doms
        assert name in doms            # every block dominates itself
        assert doms <= reachable       # dominators are themselves reachable


@given(random_cfg())
@settings(max_examples=120, deadline=None)
def test_immediate_dominators_form_a_tree_rooted_at_entry(cfg):
    dominators = compute_dominators(cfg)
    idom = immediate_dominators(cfg)
    assert idom[cfg.entry] is None
    for name in idom:
        if name == cfg.entry:
            continue
        parent = idom[name]
        # The parent strictly dominates its child...
        assert parent in dominators[name] - {name}
        # ...and the dominator sets satisfy dom(b) = {b} ∪ dom(idom(b)).
        assert dominators[name] == {name} | dominators[parent]
        # Walking parents reaches the entry without ever revisiting a node.
        seen = {name}
        while name != cfg.entry:
            name = idom[name]
            assert name is not None and name not in seen
            seen.add(name)


@given(random_cfg())
@settings(max_examples=120, deadline=None)
def test_loop_depths_non_negative_and_monotone_into_nests(cfg):
    loops = find_natural_loops(cfg)
    depths = loop_depths(cfg)
    in_any_loop = set().union(*(loop.body for loop in loops)) if loops else set()
    for name, depth in depths.items():
        assert depth >= 0
        if name in in_any_loop:
            assert depth >= 1
        else:
            assert depth == 0
    # Nesting is monotone: blocks of a loop strictly inside another loop sit
    # in (at least) two loop bodies, so their depth exceeds the outer-only
    # blocks' minimum of 1.
    for inner in loops:
        for outer in loops:
            if inner is not outer and inner.body < outer.body:
                for name in inner.body:
                    assert depths[name] >= 2


@given(random_cfg())
@settings(max_examples=120, deadline=None)
def test_branch_probabilities_normalized_per_block(cfg):
    probabilities = branch_probabilities(cfg)
    reachable = reachable_blocks(cfg)
    for name in reachable:
        targets = list(dict.fromkeys(cfg.successors.get(name, [])))
        if not targets:
            continue
        total = sum(probabilities[(name, target)] for target in targets)
        assert abs(total - 1.0) < 1e-9
        assert all(probabilities[(name, target)] > 0.0 for target in targets)


# --------------------------------------------------------------------------- #
# Cost-model invariants on synthetic block graphs
# --------------------------------------------------------------------------- #
@st.composite
def synthetic_parameters(draw):
    count = draw(st.integers(min_value=2, max_value=8))
    params = {}
    keys = [f"f:b{i}" for i in range(count)]
    for i, key in enumerate(keys):
        succs = []
        if i + 1 < count:
            succs.append(keys[i + 1])
        if draw(st.booleans()) and i > 0:
            succs.append(keys[draw(st.integers(min_value=0, max_value=i - 1))])
        params[key] = BlockParameters(
            key=key, function="f", name=f"b{i}",
            size=draw(st.integers(min_value=2, max_value=64)),
            cycles=draw(st.integers(min_value=1, max_value=40)),
            frequency=float(draw(st.integers(min_value=0, max_value=1000))),
            instrument_bytes=draw(st.integers(min_value=0, max_value=12)),
            instrument_cycles=draw(st.integers(min_value=0, max_value=8)),
            ram_stall_cycles=draw(st.integers(min_value=0, max_value=4)),
            successors=succs,
        )
    return params


@given(synthetic_parameters(), st.sets(st.integers(min_value=0, max_value=7)))
@settings(max_examples=60, deadline=None)
def test_cost_model_invariants(params, subset_indices):
    model = PlacementCostModel(params, e_flash=2.0, e_ram=1.0)
    keys = list(params)
    ram = {keys[i] for i in subset_indices if i < len(keys)}
    estimate = model.evaluate(ram)
    baseline = model.evaluate(set())
    # Execution never gets faster by moving code to RAM in this machine model.
    assert estimate.cycles >= baseline.cycles - 1e-9
    assert estimate.time_ratio >= 1.0 - 1e-9
    # RAM usage is monotone in the placement and zero for the empty placement.
    assert baseline.ram_bytes == 0
    assert estimate.ram_bytes >= 0
    # Energy is bounded below by running everything from RAM with no overheads.
    lower_bound = sum(p.cycles * p.frequency for p in params.values()) * 1.0
    assert estimate.energy_j >= lower_bound - 1e-9
    # Instrumented blocks are exactly those with a cross-memory successor.
    for key, p in params.items():
        crosses = any((succ in ram) != (key in ram) for succ in p.successors)
        assert (key in estimate.instrumented) == crosses


# --------------------------------------------------------------------------- #
# Compiled arithmetic agrees with Python for random expressions
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=15, deadline=None)
def test_compiled_expression_matches_python(a, b, c):
    expected = (a * b + c) - (a - b) * 2 + (a + c) // c
    source = f"""
        int main(void) {{
            int a = {a}; int b = {b}; int c = {c};
            return (a * b + c) - (a - b) * 2 + (a + c) / c;
        }}
    """
    # C division truncates toward zero; Python floors — align the reference.
    quotient = int((a + c) / c)
    expected = (a * b + c) - (a - b) * 2 + quotient
    assert compile_and_run(source, "O1").signed_return_value == expected


# --------------------------------------------------------------------------- #
# Differential referee: every simulator path on generated mini-C programs
# --------------------------------------------------------------------------- #
_ARITH_OPS = ("+", "-", "*", "&", "|", "^")
_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _expression(draw, names, depth):
    """A side-effect-free int expression over *names* (no division)."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(names))
        return str(draw(st.integers(min_value=0, max_value=300)))
    kind = draw(st.integers(min_value=0, max_value=2))
    left = _expression(draw, names, depth - 1)
    if kind == 1:
        shift = draw(st.sampled_from(("<<", ">>")))
        return f"({left} {shift} {draw(st.integers(min_value=0, max_value=7))})"
    op = draw(st.sampled_from(_ARITH_OPS if kind == 0 else _COMPARISONS))
    return f"({left} {op} {_expression(draw, names, depth - 1)})"


def _statement(draw, names):
    """One loop-body statement: assignment, call, if/else or buffer access."""
    def expr():
        return _expression(draw, names, 2)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return f"acc = {expr()};"
    if kind == 1:
        return f"acc += helper({expr()}, {expr()});"
    if kind == 2:
        compare = draw(st.sampled_from(_COMPARISONS))
        return (f"if ({expr()} {compare} {expr()}) {{ acc = {expr()}; }} "
                f"else {{ acc = {expr()}; }}")
    if kind == 3:
        return f"buf[({expr()}) & 7] = {expr()};"
    return f"acc ^= buf[({expr()}) & 7];"


@st.composite
def mini_c_programs(draw):
    """A terminating mini-C program with calls, conditionals and loops.

    The outer loop runs more than ``HOT_THRESHOLD`` iterations, so its
    blocks become hot and are traced into superblocks; an optional inner
    loop nests a second hot path inside it.
    """
    def body(names):
        count = draw(st.integers(min_value=1, max_value=3))
        return " ".join(_statement(draw, names) for _ in range(count))

    params = ("x", "y")
    compare = draw(st.sampled_from(_COMPARISONS))
    inner = draw(st.integers(min_value=0, max_value=5))
    inner_loop = (f"for (int j = 0; j < {inner}; ++j) {{ "
                  f"{body(('acc', 'i', 'j'))} }}" if inner else "")
    iterations = draw(st.integers(min_value=HOT_THRESHOLD + 1, max_value=40))
    return f"""
        int buf[8];
        int helper(int x, int y) {{
            int r = {_expression(draw, params, 2)};
            if ({_expression(draw, params, 1)} {compare}
                {_expression(draw, params, 1)}) {{
                r = {_expression(draw, params, 2)};
            }}
            return r;
        }}
        int main(void) {{
            int acc = {draw(st.integers(min_value=0, max_value=1000))};
            for (int i = 0; i < {iterations}; ++i) {{
                {body(('acc', 'i'))}
                {inner_loop}
            }}
            return acc;
        }}
    """


#: Far above what a generated program retires (a few thousand
#: instructions), so a simulator bug that loops fails fast.
_INSTRUCTION_LIMIT = 500_000


#: One clock per timing model, two of them with an icache; the order puts
#: a cached clock first and the flat one after it.
_CLOCKS = ("pipelined+icache:32x8", "flat", "pipelined", "pipelined+icache")


def _assert_fast_paths_match_oracle(program):
    """Every flat fast path is bitwise the interpreted run; pipelined and
    icache runs return its value; a run clocked under every model gives
    each model's single-model result.  Returns the oracle's result."""
    def run(**options):
        return Simulator(program, max_instructions=_INSTRUCTION_LIMIT,
                         **options).run()

    oracle = run(decode_once=False)
    assert run(superblocks=False) == oracle
    assert run() == oracle   # cold: forms superblocks
    assert run() == oracle   # warm: dispatches them
    singles = [run(timing_model=model) for model in _CLOCKS]
    for single in singles:
        assert single.return_value == oracle.return_value
    clocked = Simulator(program, max_instructions=_INSTRUCTION_LIMIT,
                        timing_model=_CLOCKS)
    clocked.run()
    assert list(clocked.results.values()) == singles
    return oracle


@given(mini_c_programs(), st.data())
@settings(max_examples=40, deadline=None)
def test_simulator_paths_agree_on_generated_programs(source, data):
    program = compile_program(source, "O2")
    unplaced = _assert_fast_paths_match_oracle(program)
    assert program.superblock_state()[0], "no superblock was formed"

    # An arbitrary RAM set, not just the ones the ILP would pick: mixed
    # placements instrument cross-memory branches (it-predicated long
    # branches) and fetch from both memories.
    keys = [program.block_key(block) for block in program.iter_blocks()]
    in_ram = data.draw(st.lists(st.booleans(), min_size=len(keys),
                                max_size=len(keys)))
    apply_placement(program, [key for key, ram in zip(keys, in_ram) if ram])
    placed = _assert_fast_paths_match_oracle(program)
    assert placed.return_value == unplaced.return_value
    assert verify_machine_program(program) == []
