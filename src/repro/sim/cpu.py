"""Instruction-level simulator for linked machine programs.

The simulator is structural rather than binary: it walks
:class:`~repro.machine.blocks.MachineBlock` objects directly, using the
addresses assigned by the layout stage only where real code would need them
(indirect branches, literal loads of symbol addresses, data accesses).  This
keeps it fast while still modelling everything the paper's evaluation needs:
cycle counts with RAM-contention stalls, per-cycle power depending on the
fetch memory, per-block execution counts and return values for correctness
checks.

Two execution loops share identical observable behaviour:

* the **decode-once loop** (default): blocks are lazily lowered to
  predecoded instruction records (:mod:`repro.sim.decode`) with pre-bound
  handlers, pre-resolved operands and precomputed cycle/energy metadata,
  cached on the blocks themselves.  Each instruction executes once and its
  base cycles feed one *clock* per requested timing model
  (:mod:`repro.sim.pipeline`): a clock adds that model's fetch and load-use
  stalls and keeps its own totals, energy counts and block profile, so one
  execution yields a result per model.  A flat-only run also chains hot
  blocks along their observed successor paths into trace-compiled
  superblocks (:mod:`repro.sim.superblock`) with batched accounting and
  side-exit guards; ``superblocks=False`` turns that tracing off, and runs
  with a pipelined clock never trace;
* the **interpreted reference loop** (``decode_once=False``): the original
  per-instruction dispatch under flat timing, kept as the bit-exact oracle
  the regression tests compare the fast paths against.

Under flat timing every path produces bitwise-identical
:class:`SimulationResult` values, and every clock of a multi-model run is
bitwise the standalone run under its model.  To make that hold under
batching, energy is accounted uniformly as *event counts* per
``(cycles, fetch_region, instr_class, data_region)`` key and
reduced to a float in one deterministic pass at the end of the run
(:func:`price`): identical counts give identical floats no matter which
path — or what grouping — produced them.  The result keeps the counts, so
:meth:`SimulationResult.priced` re-prices a run under another energy model
without simulating it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.conditions import Cond, cond_holds
from repro.isa.instructions import Imm, InstrClass, MachineInstr, Opcode, RegList, Sym
from repro.isa.registers import LR, PC, SP, Reg
from repro.isa.timing import (
    FLASH_WAIT_STATES,
    LOAD_USE_STALL,
    RAM_CONTENTION_STALL,
    cycles_for,
    instr_class,
)
from repro.machine.blocks import MachineBlock, MachineFunction
from repro.machine.program import MachineProgram
from repro.sim.decode import SimulationError, predecode, resolve_symbol
from repro.sim.energy import EnergyModel
from repro.sim.memory import MemorySystem
from repro.sim.pipeline import TimingSpec
from repro.sim.profiler import BlockProfile
from repro.sim.superblock import (
    HOT_THRESHOLD,
    MAX_CHAIN,
    build_superblock,
    execute_superblock,
)
from repro.telemetry import get_telemetry

_MASK = 0xFFFFFFFF

#: Energy-count keys carry the InstrClass *value* string, not the enum:
#: str hashes at C speed and caches its hash, Enum.__hash__ is a Python call.
_ALU_VALUE = InstrClass.ALU.value

#: Link-register token returned to when the entry function finishes.
EXIT_TOKEN = 0xFFFFFFF1
#: Base value for call-site return tokens.
RETURN_TOKEN_BASE = 0xF0000000


def price(energy_counts: Dict[Tuple, int], cycles: int,
          energy_model: EnergyModel) -> Tuple[float, float]:
    """``(energy_j, time_s)`` of a run's event counts under *energy_model*.

    The keys are visited in one fixed order with one multiply-add per key,
    so identical counts yield bitwise-identical energy no matter which
    execution path (or what batching) produced them.
    """
    energy_j = energy_model.energy_j
    total_energy = 0.0
    for key in sorted(energy_counts,
                      key=lambda k: (k[0], k[1], k[2], k[3] or "")):
        key_cycles, fetch_region, klass_value, data_region = key
        total_energy += energy_counts[key] * energy_j(
            key_cycles, fetch_region, InstrClass(klass_value), data_region)
    return total_energy, cycles * energy_model.cycle_time_s


@dataclass
class SimulationResult:
    """Everything the evaluation harness needs from one program run.

    ``energy_counts`` are the run's integer energy events per
    ``(cycles, fetch_region, instr_class, data_region)`` key; ``energy_j``
    and ``time_s`` are their price under the simulating energy model, and
    :meth:`priced` re-prices them under another.
    """

    return_value: int
    cycles: int
    instructions: int
    energy_j: float
    time_s: float
    profile: BlockProfile
    cycles_by_section: Dict[str, int] = field(default_factory=dict)
    energy_counts: Dict[Tuple, int] = field(default_factory=dict, repr=False)

    def priced(self, energy_model: EnergyModel) -> "SimulationResult":
        """This run under *energy_model*: bitwise what simulating the same
        program under that model gives, since the model changes only the
        price of each event, never the execution."""
        energy_j, time_s = price(self.energy_counts, self.cycles, energy_model)
        return replace(self, energy_j=energy_j, time_s=time_s)

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0

    @property
    def average_power_mw(self) -> float:
        return self.average_power_w * 1e3

    @property
    def signed_return_value(self) -> int:
        value = self.return_value & _MASK
        return value - (1 << 32) if value & 0x80000000 else value


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value & 0x80000000 else value


class _Clock:
    """One timing model's accounting during a decode-once run.

    The loop executes each instruction once; its base cycles (taken or not
    taken, plus RAM contention) are what a flat clock charges.  A pipelined
    clock adds the load-use stall, which every pipelined clock shares, and
    its own fetch stall, from its own fetch state (``overlap``, icache
    ``tags``).  Each clock keeps its own energy counts and per-block
    cycles; its cycle total is the shared base plus its stalls.
    """

    __slots__ = ("timing", "pipelined", "lines", "miss_penalty", "tags",
                 "hits", "misses", "line_memo", "line_ids", "overlap",
                 "stalls", "block_start", "energy_counts", "profile")

    def __init__(self, timing: TimingSpec, profile: BlockProfile):
        self.timing = timing
        self.pipelined = not timing.is_flat
        self.lines = timing.icache_lines
        self.miss_penalty = timing.miss_penalty
        self.tags = [-1] * self.lines
        self.hits = 0
        self.misses = 0
        #: Icache line of each instruction of a block, by block key.
        self.line_memo: Dict[str, List[int]] = {}
        self.line_ids: Optional[List[int]] = None
        #: Fetch cycles the previous instruction's execute time can hide.
        self.overlap = 0
        #: Fetch-stall cycles charged so far.
        self.stalls = 0
        #: Cycle total when the current block was entered.
        self.block_start = 0
        self.energy_counts: Dict[Tuple, int] = {}
        self.profile = profile

    def total(self, base_cycles: int, hazard_cycles: int) -> int:
        """This clock's cycle total given the shared base and hazard ones."""
        if self.pipelined:
            return base_cycles + hazard_cycles + self.stalls
        return base_cycles


def _cycles_by_section(energy_counts: Dict[Tuple, int]) -> Dict[str, int]:
    """The cycles the energy events carry, by fetch region."""
    sections = {"flash": 0, "ram": 0}
    for (cycles, region, _klass, _data_region), count in energy_counts.items():
        sections[region] += cycles * count
    return sections


class Simulator:
    """Executes a linked machine program and accounts cycles and energy.

    ``timing_model`` selects the cycle-accounting scheme: the default
    ``"flat"`` or the 3-stage fetch/decode/execute accounting of
    :mod:`repro.sim.pipeline` (``"pipelined"``, optionally with
    ``+icache[:LxB]``).  A sequence of models clocks one execution under
    each of them: :meth:`run` returns the first model's result and
    :attr:`results` maps every model's canonical name to its result, each
    bitwise what a run under that model alone gives.  ``decode_once=False``
    picks the interpreted oracle, which models flat timing only, so
    combining it with a pipelined model raises :class:`ValueError`.
    ``superblocks`` only matters for a flat-only run: superblocks batch
    statically precomputed *flat* cycles, so a run with a pipelined clock
    never forms them.
    """

    def __init__(self, program: MachineProgram,
                 energy_model: Optional[EnergyModel] = None,
                 max_instructions: int = 20_000_000,
                 decode_once: bool = True,
                 superblocks: bool = True,
                 timing_model: Union[str, TimingSpec,
                                     Sequence[Union[str, TimingSpec]]] = "flat"):
        self.program = program
        self.energy_model = energy_model or EnergyModel()
        self.max_instructions = max_instructions
        self.decode_once = decode_once
        self.superblocks = superblocks
        models = ([timing_model] if isinstance(timing_model, (str, TimingSpec))
                  else list(timing_model))
        if not models:
            raise ValueError("timing_model names no timing model")
        #: The distinct timing models clocked, in request order.
        self.timings: Tuple[TimingSpec, ...] = tuple(dict.fromkeys(
            TimingSpec.parse(model) for model in models))
        self.timing = self.timings[0]
        if not decode_once and self.timings != (TimingSpec(),):
            raise ValueError(
                f"decode_once=False selects the interpreted oracle, which "
                f"models flat timing only; got timing_model="
                f"{', '.join(timing.name for timing in self.timings)!r}")
        #: Canonical timing-model name → result of the latest :meth:`run`.
        self.results: Dict[str, SimulationResult] = {}

        self.memory = MemorySystem(program.flash, program.ram)
        self._init_data()

        self._address_to_block: Dict[int, Tuple[str, str]] = {}
        for function in program.iter_functions():
            for block in function.iter_blocks():
                if block.address is not None:
                    self._address_to_block[block.address] = (function.name, block.name)

        # Return tokens for calls: interned so that a call site executed many
        # times (loops, periodic sensing) maps to ONE token instead of growing
        # the table by one entry per dynamic call.
        self._return_sites: List[Tuple[str, str, int]] = []
        self._return_site_tokens: Dict[Tuple[str, str, int], int] = {}

        self.registers: List[int] = [0] * 16
        self.flag_n = False
        self.flag_z = False
        self.flag_c = False
        self.flag_v = False

    # ------------------------------------------------------------------ #
    # Setup helpers
    # ------------------------------------------------------------------ #
    def _init_data(self) -> None:
        for name, data in self.program.globals.items():
            address = self.program.global_addresses.get(name)
            if address is None:
                raise SimulationError(f"global {name} has no address (layout not run?)")
            self.memory.load_words(address, data.words)

    def _resolve_symbol(self, name: str, current_function: str) -> int:
        return resolve_symbol(self.program, name, current_function)

    def _intern_return_site(self, site: Tuple[str, str, int]) -> int:
        """Token for a call return site; one token per distinct static site."""
        token = self._return_site_tokens.get(site)
        if token is None:
            token = RETURN_TOKEN_BASE + len(self._return_sites)
            self._return_site_tokens[site] = token
            self._return_sites.append(site)
        return token

    # ------------------------------------------------------------------ #
    # Register / flag helpers
    # ------------------------------------------------------------------ #
    def _get(self, reg: Reg) -> int:
        return self.registers[reg.index] & _MASK

    def _set(self, reg: Reg, value: int) -> None:
        self.registers[reg.index] = value & _MASK

    def _operand_value(self, operand, current_function: str) -> int:
        if isinstance(operand, Reg):
            return self._get(operand)
        if isinstance(operand, Imm):
            return operand.value & _MASK
        if isinstance(operand, Sym):
            return (self._resolve_symbol(operand.name, current_function)
                    + operand.addend) & _MASK
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _set_flags_sub(self, a: int, b: int) -> None:
        result = (a - b) & _MASK
        self.flag_n = bool(result & 0x80000000)
        self.flag_z = result == 0
        self.flag_c = a >= b
        self.flag_v = ((a ^ b) & (a ^ result) & 0x80000000) != 0

    def _finish(self, total_cycles: int, total_instructions: int,
                energy_counts: Dict[Tuple, int], profile: BlockProfile,
                cycles_by_section: Dict[str, int]) -> SimulationResult:
        """Check the event counts, then price them into the result.

        Every execution path accounts energy as integer event counts keyed
        by ``(cycles, fetch_region, instr_class, data_region)``.  The result
        keeps the counts, and :func:`price` reduces them to ``energy_j`` in
        one fixed order, so identical counts yield bitwise-identical
        ``energy_j`` regardless of which path (or what batching) produced
        them — integer counts are associative where float sums are not.

        Two invariants are asserted before the reduction.  Every execution
        path bumps exactly one energy-event count per retired instruction,
        so the event total must equal the instruction total, and the
        section buckets must sum to the cycle total.  The interpreted
        oracle bumps a section bucket per cycle; the decode-once loop
        derives the buckets from the cycles its energy events carry, so
        there the check ties the events to the separately kept cycle total.
        Batched superblock accounting, every clock and any future path all
        feed the same counters — a silent drift between them would quietly
        skew ``energy_j``, which is the paper's core measurement, so the
        reconciliation is checked on every run (two integer sums; the run
        itself dwarfs the cost).
        """
        event_total = sum(energy_counts.values())
        if event_total != total_instructions:
            raise AssertionError(
                f"energy-event counts do not reconcile with the retired "
                f"instruction total: {event_total} events != "
                f"{total_instructions} instructions")
        section_total = sum(cycles_by_section.values())
        if section_total != total_cycles:
            raise AssertionError(
                f"per-section cycle buckets do not reconcile with the cycle "
                f"total: {section_total} != {total_cycles}")
        energy_j, time_s = price(energy_counts, total_cycles, self.energy_model)
        return SimulationResult(
            return_value=self.registers[0] & _MASK,
            cycles=total_cycles,
            instructions=total_instructions,
            energy_j=energy_j,
            time_s=time_s,
            profile=profile,
            cycles_by_section=cycles_by_section,
            energy_counts=energy_counts,
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, entry: Optional[str] = None,
            args: Optional[List[int]] = None) -> SimulationResult:
        entry = entry or self.program.entry
        if entry not in self.program.functions:
            raise SimulationError(f"entry function {entry!r} not found")

        self.registers = [0] * 16
        for index, value in enumerate(args or []):
            self.registers[index] = value & _MASK
        self.registers[SP.index] = self.program.ram.end
        self.registers[LR.index] = EXIT_TOKEN

        if self.decode_once:
            results = self._run_decode_once(entry)
        else:
            results = [self._run_interpreted(entry)]
        hub = get_telemetry()
        if hub.enabled:
            hub.add("sim.runs")
            hub.add("sim.clocks", len(results))
            hub.add("sim.instructions", results[0].instructions)
            hub.add("sim.cycles", sum(result.cycles for result in results))
        self.results = {timing.name: result
                        for timing, result in zip(self.timings, results)}
        return results[0]

    # ------------------------------------------------------------------ #
    # The decode-once loop behind every fast path
    # ------------------------------------------------------------------ #
    def _run_decode_once(self, entry: str) -> List[SimulationResult]:
        """Execute predecoded blocks once, clocked under every timing model.

        Each outer iteration applies one control transfer: it picks the next
        block and the instruction to resume at, and on a block *entry* runs
        the superblock prologue.  The inner loop then executes the block's
        records until a taken transfer or the end of the block.  Returns one
        result per clock, in :attr:`timings` order.

        * **Tracing** (a flat-only run, ``superblocks=True``): at a block
          entry an installed superblock runs directly; otherwise the block's
          hotness counter is bumped and, past :data:`HOT_THRESHOLD`, the path
          execution takes next is recorded and compiled
          (:func:`build_superblock`).  A superblock hands its side exit back
          as the next transfer.
        * **Tracing off** (``superblocks=False``, and every run with a
          pipelined clock): no superblock is formed or dispatched and no
          hotness is counted.  Superblocks batch flat cycles, so pipelined
          runs never trace.
        * **Clocks**: each instruction runs its handler once and its base
          cycles (taken or not taken, plus RAM contention) go to every
          clock.  A pipelined clock first charges the flash wait states the
          previous instruction's execute cycles do not hide, or looks the
          fetch up in its icache, and the load-use stall when the
          instruction reads the previous load's destination.  A taken
          transfer flushes both; a fall-through keeps them.  A flat clock
          adds nothing.
        """
        program = self.program
        functions = program.functions
        max_instructions = self.max_instructions
        profile_counts: Dict[str, int] = {}
        profile_counts_get = profile_counts.get
        clocks = [_Clock(timing, BlockProfile(counts=profile_counts))
                  for timing in self.timings]
        # A flat clock charges the base cycles, so its energy key is the
        # base key; the pipelined ("timed") clocks add stalls.
        flat_counts = next((clock.energy_counts for clock in clocks
                            if not clock.pipelined), None)
        timed = [clock for clock in clocks if clock.pipelined]
        icache_clocks = [clock for clock in timed if clock.lines]
        tracing = self.superblocks and not timed
        if tracing:
            superblocks, hot_counts = program.superblock_state()
        else:
            superblocks, hot_counts = {}, {}

        total_instructions = 0
        #: Cycles every clock pays, and load-use stalls every timed one pays.
        base_cycles = 0
        hazard_cycles = 0

        # Superblock telemetry, kept in locals and published once at finish:
        # how each dispatch ended, by the kind of transfer it handed back.
        sb_compiles = 0
        sb_exits = {"block": 0, "call": 0, "return": 0, "exit": 0}

        # Trace recording state: payload list of the trace being recorded
        # (None when idle) plus a membership set for O(1) cycle detection.
        trace: Optional[List[Tuple[str, str]]] = None
        trace_set = None

        def compile_trace(loop: bool) -> None:
            nonlocal trace, trace_set, sb_compiles
            compiled = build_superblock(program, trace, loop)
            if compiled is not None:
                superblocks[trace[0]] = compiled
                sb_compiles += 1
            trace = None
            trace_set = None

        #: Destination register of an immediately preceding load, else -1.
        load_dst = -1
        hazard = False
        pending_cond: Optional[Cond] = None

        transfer = ("block", (entry, functions[entry].entry_block.name))
        while True:
            # ---- apply the control transfer ------------------------------ #
            kind, target = transfer
            if kind == "block":
                function_name, block_name = target
                block = functions[function_name].blocks[block_name]
                payload = target
                index = 0
                entering = tracing
            elif kind == "call":
                # The superblock executor side-exits on call transfers, so a
                # chain crossing one could never be followed: end the trace.
                if trace is not None:
                    compile_trace(False)
                function_name, return_site = target
                self.registers[LR.index] = self._intern_return_site(return_site)
                block = functions[function_name].entry_block
                payload = (function_name, block.name)
                index = 0
                entering = tracing
            elif kind == "return":
                # Re-enters the calling block mid-stream: not a block entry,
                # likewise ends any live trace.
                if trace is not None:
                    compile_trace(False)
                function_name, block_name, index = target
                block = functions[function_name].blocks[block_name]
                entering = False
            elif kind == "exit":
                hub = get_telemetry()
                if hub.enabled:
                    if tracing:
                        hub.add("sim.superblock.compiles", sb_compiles)
                        hub.add("sim.superblock.dispatches",
                                sum(sb_exits.values()))
                        for exit_kind in ("block", "call", "return"):
                            hub.add(f"sim.superblock.exits.{exit_kind}",
                                    sb_exits[exit_kind])
                    for clock in icache_clocks:
                        hub.add("sim.icache.hits", clock.hits)
                        hub.add("sim.icache.misses", clock.misses)
                return [self._finish(
                    clock.total(base_cycles, hazard_cycles),
                    total_instructions, clock.energy_counts,
                    # Block counts are shared; each later result gets a copy.
                    clock.profile if position == 0 else replace(
                        clock.profile, counts=dict(profile_counts)),
                    _cycles_by_section(clock.energy_counts))
                    for position, clock in enumerate(clocks)]
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown transfer kind {kind}")

            if entering:
                # ---- block-entry dispatch: superblocks ------------------- #
                sb = superblocks.get(payload)
                if sb is None and trace is not None and payload == trace[0]:
                    # The trace closed back on its head: a loop.  Compile
                    # it and dispatch the new superblock at once.
                    compile_trace(True)
                    sb = superblocks.get(payload)
                if sb is not None:
                    if trace is not None:
                        # Chain the recorded prefix up to (not into) the
                        # existing superblock; execution continues inside it.
                        compile_trace(False)
                    (clock,) = clocks
                    transfer, base_cycles, total_instructions = \
                        execute_superblock(self, sb, superblocks,
                                           base_cycles, total_instructions,
                                           flat_counts, clock.profile,
                                           max_instructions)
                    clock.block_start = base_cycles
                    sb_exits[transfer[0]] += 1
                    continue

            decoded = predecode(program, block)
            records = decoded.records
            end = len(records)
            fetch_region = decoded.fetch_region
            fetch_is_ram = decoded.fetch_is_ram
            current_block_key = program.block_key(block)
            if not fetch_is_ram:
                for clock in icache_clocks:
                    line_ids = clock.line_memo.get(current_block_key)
                    if line_ids is None:
                        line_ids = clock.timing.icache_line_ids(block)
                        clock.line_memo[current_block_key] = line_ids
                    clock.line_ids = line_ids

            if entering:
                # ---- block-entry trace state ----------------------------- #
                if trace is not None:
                    if (payload in trace_set or not decoded.chainable
                            or len(trace) >= MAX_CHAIN):
                        compile_trace(False)
                    else:
                        trace.append(payload)
                        trace_set.add(payload)
                if trace is None:
                    count = hot_counts.get(payload, 0) + 1
                    hot_counts[payload] = count
                    if count >= HOT_THRESHOLD and decoded.chainable:
                        trace = [payload]
                        trace_set = {payload}

            # ---- execute the block's records ----------------------------- #
            while True:
                if total_instructions > max_instructions:
                    raise SimulationError(
                        f"instruction limit exceeded ({self.max_instructions}); "
                        f"likely an infinite loop in {function_name}")

                if index >= end:
                    # End of block without a taken transfer: fall through.
                    # The pipeline keeps streaming across the boundary.
                    transfer = None
                    if block.fallthrough is None:
                        raise SimulationError(
                            f"fell off the end of {function_name}/{block.name}")
                    break

                record = records[index]

                # --- predication (it blocks) ----------------------------- #
                if record.is_it or record.predicated and not cond_holds(
                        pending_cond if record.cond is None else record.cond,
                        self.flag_n, self.flag_z, self.flag_c, self.flag_v):
                    # The it prefix itself, or a predicated instruction
                    # whose condition fails: one ALU cycle, no effect.
                    if record.is_it:
                        pending_cond = record.cond
                    base = 1
                    klass = _ALU_VALUE
                    data_region = transfer = None
                    hazard = False
                    load_dst = -1
                else:
                    # --- execute ----------------------------------------- #
                    data_region, transfer = record.run(self)
                    if record.conditional and transfer is None:
                        base = record.cycles_not_taken
                    else:
                        base = record.cycles_taken
                    # RAM bus contention: executing from RAM while touching
                    # RAM data.
                    if (fetch_is_ram and data_region == "ram"
                            and record.contention):
                        base += RAM_CONTENTION_STALL
                    klass = record.klass_value
                    if timed:
                        # Load-use hazard: reading the previous load's
                        # destination.  A taken transfer flushes it.
                        hazard = load_dst >= 0 and load_dst in record.reads
                        load_dst = (record.load_dst if transfer is None
                                    else -1)
                total_instructions += 1

                # --- clocks ---------------------------------------------- #
                base_cycles += base
                if flat_counts is not None:
                    key = (base, fetch_region, klass, data_region)
                    flat_counts[key] = flat_counts.get(key, 0) + 1
                if timed:
                    if hazard:
                        base += LOAD_USE_STALL
                        hazard_cycles += LOAD_USE_STALL
                    for clock in timed:
                        cycles = base
                        region = fetch_region
                        # Fetch stage: RAM fetches are single-cycle.
                        if not fetch_is_ram:
                            if clock.lines:
                                line = clock.line_ids[index]
                                tags = clock.tags
                                slot = line % clock.lines
                                if tags[slot] == line:
                                    # Hit: single-cycle fetch from cache
                                    # SRAM, charged at RAM fetch power.
                                    region = "ram"
                                    clock.hits += 1
                                    stall = 0
                                else:
                                    tags[slot] = line
                                    clock.misses += 1
                                    stall = clock.miss_penalty - clock.overlap
                            else:
                                stall = FLASH_WAIT_STATES - clock.overlap
                            if stall > 0:
                                cycles += stall
                                clock.stalls += stall
                        # A taken transfer flushes the pipeline.
                        clock.overlap = cycles - 1 if transfer is None else 0
                        counts = clock.energy_counts
                        key = (cycles, region, klass, data_region)
                        counts[key] = counts.get(key, 0) + 1

                if transfer is None:
                    index += 1
                    continue
                break

            # ---- block exit: one profile entry per clock ------------------ #
            profile_counts[current_block_key] = \
                profile_counts_get(current_block_key, 0) + 1
            for clock in clocks:
                block_cycles = clock.profile.cycles
                total = clock.total(base_cycles, hazard_cycles)
                block_cycles[current_block_key] = block_cycles.get(
                    current_block_key, 0) + total - clock.block_start
                clock.block_start = total
            if transfer is None:
                transfer = ("block", (function_name, block.fallthrough))

    # ------------------------------------------------------------------ #
    # Interpreted reference path (the seed implementation, kept as oracle)
    # ------------------------------------------------------------------ #
    def _run_interpreted(self, entry: str) -> SimulationResult:
        profile = BlockProfile()
        total_cycles = 0
        total_instructions = 0
        energy_counts: Dict[Tuple, int] = {}
        counts_get = energy_counts.get
        cycles_by_section = {"flash": 0, "ram": 0}

        function_name = entry
        block = self.program.functions[entry].entry_block
        index = 0
        pending_cond: Optional[Cond] = None
        block_cycle_start = 0
        current_block_key = self.program.block_key(block)

        while True:
            if total_instructions > self.max_instructions:
                raise SimulationError(
                    f"instruction limit exceeded ({self.max_instructions}); "
                    f"likely an infinite loop in {function_name}")

            function = self.program.functions[function_name]
            if index >= len(block.instructions):
                # End of block without explicit control transfer: fall through.
                profile.record(current_block_key, total_cycles - block_cycle_start)
                next_name = block.fallthrough
                if next_name is None:
                    raise SimulationError(
                        f"fell off the end of {function_name}/{block.name}")
                block = function.blocks[next_name]
                index = 0
                block_cycle_start = total_cycles
                current_block_key = self.program.block_key(block)
                continue

            instr = block.instructions[index]
            fetch_region = "ram" if block.section == "ram" else "flash"

            # --- predication (it blocks) ---------------------------------- #
            if instr.opcode is Opcode.IT:
                pending_cond = instr.cond
                total_cycles += 1
                total_instructions += 1
                cycles_by_section[fetch_region] += 1
                key = (1, fetch_region, _ALU_VALUE, None)
                energy_counts[key] = counts_get(key, 0) + 1
                index += 1
                continue

            if instr.predicated:
                condition = instr.cond if instr.cond is not None else pending_cond
                take = cond_holds(condition, self.flag_n, self.flag_z,
                                  self.flag_c, self.flag_v)
                if not take:
                    total_cycles += 1
                    total_instructions += 1
                    cycles_by_section[fetch_region] += 1
                    key = (1, fetch_region, _ALU_VALUE, None)
                    energy_counts[key] = counts_get(key, 0) + 1
                    index += 1
                    continue

            # --- execute --------------------------------------------------- #
            outcome = self._execute(instr, function_name, block, index)
            (cycles, data_region, transfer) = outcome

            # RAM bus contention: executing from RAM while touching RAM data.
            if (fetch_region == "ram" and data_region == "ram"
                    and instr.opcode in (Opcode.LDR, Opcode.LDRB, Opcode.STR,
                                         Opcode.STRB, Opcode.LDR_LIT)):
                cycles += RAM_CONTENTION_STALL

            total_cycles += cycles
            total_instructions += 1
            cycles_by_section[fetch_region] += cycles
            key = (cycles, fetch_region, instr_class(instr).value, data_region)
            energy_counts[key] = counts_get(key, 0) + 1

            if transfer is None:
                index += 1
                continue

            kind, payload = transfer
            profile.record(current_block_key, total_cycles - block_cycle_start)
            block_cycle_start = total_cycles

            if kind == "exit":
                return self._finish(total_cycles, total_instructions,
                                    energy_counts, profile, cycles_by_section)
            if kind == "block":
                target_function, target_block = payload
                function_name = target_function
                block = self.program.functions[target_function].blocks[target_block]
                index = 0
            elif kind == "call":
                callee, return_site = payload
                self.registers[LR.index] = self._intern_return_site(return_site)
                function_name = callee
                block = self.program.functions[callee].entry_block
                index = 0
            elif kind == "return":
                site_function, site_block, site_index = payload
                function_name = site_function
                block = self.program.functions[site_function].blocks[site_block]
                index = site_index
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown transfer kind {kind}")
            current_block_key = self.program.block_key(block)

    # ------------------------------------------------------------------ #
    # Instruction execution
    # ------------------------------------------------------------------ #
    def _execute(self, instr: MachineInstr, function_name: str,
                 block: MachineBlock, index: int):
        """Execute one instruction.

        Returns ``(cycles, data_region, transfer)`` where *transfer* is None
        for straight-line execution or a tuple describing a control transfer.
        """
        op = instr.opcode
        operands = instr.operands
        data_region: Optional[str] = None
        transfer = None
        taken = True

        if op in (Opcode.MOV, Opcode.MVN):
            value = self._operand_value(operands[1], function_name)
            if op is Opcode.MVN:
                value = ~value & _MASK
            self._set(operands[0], value)

        elif op is Opcode.LDR_LIT:
            value = self._operand_value(operands[1], function_name)
            self._set(operands[0], value)
            data_region = "ram" if block.section == "ram" else "flash"

        elif op in (Opcode.ADD, Opcode.SUB, Opcode.RSB, Opcode.MUL, Opcode.SDIV,
                    Opcode.UDIV, Opcode.AND, Opcode.ORR, Opcode.EOR, Opcode.LSL,
                    Opcode.LSR, Opcode.ASR):
            self._execute_alu(op, operands, function_name)

        elif op is Opcode.CMP:
            a = self._operand_value(operands[0], function_name)
            b = self._operand_value(operands[1], function_name)
            self._set_flags_sub(a, b)

        elif op in (Opcode.LDR, Opcode.LDRB):
            base = self._operand_value(operands[1], function_name)
            offset = self._operand_value(operands[2], function_name)
            address = (base + offset) & _MASK
            data_region = self.memory.region_of(address)
            value = (self.memory.read_word(address) if op is Opcode.LDR
                     else self.memory.read_byte(address))
            self._set(operands[0], value)

        elif op in (Opcode.STR, Opcode.STRB):
            value = self._get(operands[0])
            base = self._operand_value(operands[1], function_name)
            offset = self._operand_value(operands[2], function_name)
            address = (base + offset) & _MASK
            data_region = self.memory.region_of(address)
            if op is Opcode.STR:
                self.memory.write_word(address, value)
            else:
                self.memory.write_byte(address, value)

        elif op is Opcode.PUSH:
            regs = sorted(operands[0].regs, key=lambda r: r.index)
            sp = self._get(SP) - 4 * len(regs)
            for position, reg in enumerate(regs):
                self.memory.write_word(sp + 4 * position, self._get(reg))
            self._set(SP, sp)
            data_region = "ram"

        elif op is Opcode.POP:
            regs = sorted(operands[0].regs, key=lambda r: r.index)
            sp = self._get(SP)
            jump_value = None
            for position, reg in enumerate(regs):
                value = self.memory.read_word(sp + 4 * position)
                if reg is PC:
                    jump_value = value
                else:
                    self._set(reg, value)
            self._set(SP, sp + 4 * len(regs))
            data_region = "ram"
            if jump_value is not None:
                transfer = self._transfer_to_address(jump_value, function_name)

        elif op is Opcode.B:
            target = operands[0].name
            transfer = ("block", (function_name, target))

        elif op is Opcode.BCC:
            taken = cond_holds(instr.cond, self.flag_n, self.flag_z,
                               self.flag_c, self.flag_v)
            if taken:
                transfer = ("block", (function_name, operands[0].name))

        elif op in (Opcode.CBZ, Opcode.CBNZ):
            value = self._get(operands[0])
            zero = value == 0
            taken = zero if op is Opcode.CBZ else not zero
            if taken:
                transfer = ("block", (function_name, operands[1].name))

        elif op is Opcode.BL:
            callee = operands[0].name
            if callee not in self.program.functions:
                raise SimulationError(f"call to unknown function {callee!r}")
            return_site = (function_name, block.name, index + 1)
            transfer = ("call", (callee, return_site))

        elif op is Opcode.BX:
            value = self._get(operands[0])
            transfer = self._transfer_to_address(value, function_name)

        elif op is Opcode.LDR_PC_LIT:
            target = operands[0].name
            transfer = ("block", (function_name, target))
            data_region = "ram" if block.section == "ram" else "flash"

        elif op is Opcode.NOP:
            pass

        else:  # pragma: no cover - defensive
            raise SimulationError(f"cannot execute {instr}")

        cycles = cycles_for(instr, taken=taken)
        return cycles, data_region, transfer

    def _execute_alu(self, op: Opcode, operands, function_name: str) -> None:
        dst = operands[0]
        a = self._operand_value(operands[1], function_name)
        b = self._operand_value(operands[2], function_name)
        if op is Opcode.ADD:
            result = a + b
        elif op is Opcode.SUB:
            result = a - b
        elif op is Opcode.RSB:
            result = b - a
        elif op is Opcode.MUL:
            result = a * b
        elif op is Opcode.SDIV:
            sa, sb = _signed(a), _signed(b)
            result = 0 if sb == 0 else int(sa / sb)
        elif op is Opcode.UDIV:
            result = 0 if b == 0 else a // b
        elif op is Opcode.AND:
            result = a & b
        elif op is Opcode.ORR:
            result = a | b
        elif op is Opcode.EOR:
            result = a ^ b
        elif op is Opcode.LSL:
            result = a << (b & 31)
        elif op is Opcode.LSR:
            result = a >> (b & 31)
        elif op is Opcode.ASR:
            result = _signed(a) >> (b & 31)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown ALU op {op}")
        self._set(dst, result)

    # ------------------------------------------------------------------ #
    def _transfer_to_address(self, value: int, function_name: str = ""):
        """Classify an indirect jump value: exit token, return token or address."""
        if value == EXIT_TOKEN:
            return ("exit", None)
        if value >= RETURN_TOKEN_BASE and value != EXIT_TOKEN:
            site_index = value - RETURN_TOKEN_BASE
            if site_index >= len(self._return_sites):
                raise SimulationError(f"bad return token {value:#010x}")
            return ("return", self._return_sites[site_index])
        target = self._address_to_block.get(value)
        if target is None:
            raise SimulationError(
                f"indirect jump to {value:#010x} does not hit a block start")
        return ("block", target)
