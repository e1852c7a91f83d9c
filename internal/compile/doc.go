// Package compile turns a frozen, levelized netlist into straight-line
// word-level programs — the software analogue of the "power emulation"
// idea from hardware-accelerated power estimation: pay the per-gate
// decoding cost once, at compile time, and replay the circuit at native
// word speed afterwards.
//
// A compilation Unit holds two programs over the same circuit:
//
//   - Full computes the settled value of every node (one register slot
//     per node). It is observation-exact: slot i holds, in every lane,
//     exactly what the scalar levelized settle (sim.ZeroDelay.Settle)
//     computes for node i, so weighted toggle diffs over the register
//     file are bit-identical to the scalar zero-delay engine's. Its only liberties are ones
//     that cannot change any node value: gates whose value is invariant
//     (constant cones) are hoisted into init data, and identity
//     operands (AND with a known-1 input, XOR with a known-0 input, …)
//     are elided with the gate's polarity adjusted.
//   - Step computes only the next latch state (the D-pin values). It is
//     free to restructure: gates outside the transitive fanin cone of
//     the latches are eliminated (dead fanout with respect to state
//     evolution), BUF chains collapse to slot aliases, single-fanout
//     same-base gate chains fuse into multi-input ops (AND feeding AND
//     becomes one n-ary AND; XOR-base fusion absorbs XNOR/NOT children
//     by flipping the parent's polarity), and register slots are
//     recycled by a linear-scan allocator so the working set stays
//     cache-resident. Hidden cycles — the bulk of every estimation run —
//     execute Step; sampled cycles execute Full.
//
// The bytecode is deliberately tiny: a flat instruction array of
// (opcode, dst, operands) over a register file of W-word rows, where W
// is chosen by the caller at execution time (1 word = 64 lanes, up to 8
// words = 512 lanes per step). Two-operand gates get specialized
// opcodes; wider gates read their operand list from a shared args
// table. Instructions are emitted in levelized order, so execution is a
// single linear pass with no scheduling logic, and each op streams W
// contiguous words per operand — the per-instruction decode cost is
// amortized over the whole lane block.
//
// Programs are compiled once per frozen circuit — Unit construction is
// a pure function of the CSR view built at Freeze — and cached on the
// circuit itself (netlist.(*Circuit).SetArtifact), so every
// sim.CompiledSession over the same circuit shares one Unit.
//
// Every pass above must be observation-equivalent to the scalar settle;
// the differential battery in internal/sim (property tests over all
// bench89 circuits and randomized netlists, FuzzCompile, and the golden
// end-to-end tests in internal/core) asserts bit-identical next-state
// words, per-lane toggle powers and estimation results.
package compile
