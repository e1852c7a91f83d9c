// Package sim provides the gate-level simulators the estimation
// technique relies on (Section IV of the paper):
//
//   - a zero-delay levelized functional simulator, used to advance the
//     circuit state cheaply through the independence interval,
//   - an event-driven general-delay simulator with inertial gate delays,
//     used on sampled cycles to observe every transition (including
//     glitches) for the power computation of Eq. 1, and
//   - one lane-parallel engine over both (CompiledSession), which runs
//     the circuit compiled by internal/compile on up to 512 independent
//     replications per step, 64 per machine word. The scalar Session and
//     EventDriven are its oracle: lane k is bit-identical to a scalar
//     Session seeded from the lane's source.
//
// The event-driven simulator is canonical: each gate is evaluated once
// per instant, after all of that instant's fanin commits (a repeated
// evaluation at the same instant replaces the earlier one), so a
// zero-width intermediate fanin value never cancels or reschedules a
// pending change; and a cycle's power is summed after the cycle in
// node-index order, w_i once per transition. Its result therefore
// depends only on the circuit, the delays and the (old, new) source
// values — which is what lets CompiledSession.StepSampledWith observe
// general-delay cycles word-level, 64 lanes per machine word, with every
// lane's power bits, counts and settled values equal to the scalar
// simulator's: a waveform engine propagates each node's change points
// in levelized order, evaluates a gate at its fanins' merged change
// times and commits each change in the lanes where the gate's function
// does not change again within one gate delay (inertial filtering as a
// sliding OR of change masks). Lane sessions therefore take a delay
// table, not an engine, for general-delay sampling
// (CompiledSession.StepSampledWith) and hand it to the waveform engine.
// sim.CycleStack applies the waveform engine, under a delay table, to
// one replication's sampled cycles recorded as stacked lanes.
//
// The scalar simulator commits events in (time, logic level, scheduling
// order). Its event queue is a timing wheel whose slot width is the gcd
// of the delay table's nonzero delays (20 ps under the default
// fanout-loaded model, so one time per slot), widened when
// maxDelay/width would exceed a fixed bound, with the smallest power of
// two of slots above maxDelay/width + 1. Each time is drained through
// per-level FIFO lists (a bucket queue over logic levels); a zero-delay
// gate scheduled meanwhile joins its level's list at the tail.
//
// Power observation itself is pluggable behind the PowerEngine
// interface: a sampled cycle is "apply the new (pattern, state), settle,
// return the weighted transition sum of Eq. 1", and which transitions
// are counted is the engine's delay-model scenario (power.PowerMode at
// the estimator level). *EventDriven realizes the paper's general-delay
// observation (glitches included); *ZeroDelayToggle realizes zero-delay
// observation (at most one functional toggle per node, computed as a
// settled-value diff). Sessions take an engine at construction
// (NewSessionEngine) and default to event-driven (NewSession).
//
// The sampled phase is word-parallel in the zero-delay scenario:
// CompiledSession.StepSampled computes every lane's power from one Full
// program pass plus an XOR diff pass over the register rows (each set
// bit routes its node's weight to its lane's sum) — a sampled cycle then
// costs the same order as a hidden one. Lane k of a compiled sampled
// step is bit-identical, float summation order included, to a scalar
// ZeroDelayToggle session over the same source. The differential
// battery drives a compiled session and one scalar Session per lane
// through the same mixed trajectory and asserts this for every lane:
// power bits, covariates, per-node counts, settled values, inputs and
// latch state.
//
// The scalar simulators operate on the same dense value array, so a
// session can interleave them cycle by cycle; the compiled session
// keeps one w-word register row per node and can extract any single
// lane into the scalar representation. All scalar inner loops run over
// the circuit's frozen CSR view (netlist.CSR): flat kind/level/fanin/
// fanout arrays instead of per-Node slice chasing.
package sim
