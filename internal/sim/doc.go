// Package sim provides the gate-level simulators the estimation
// technique relies on (Section IV of the paper):
//
//   - a zero-delay levelized functional simulator, used to advance the
//     circuit state cheaply through the independence interval,
//   - a bit-parallel 64-lane variant of it (PackedZeroDelay), which
//     advances 64 independent replications per machine word, and
//   - an event-driven general-delay simulator with inertial gate delays,
//     used on sampled cycles to observe every transition (including
//     glitches) for the power computation of Eq. 1.
//
// The event-driven simulator commits events in (time, logic level,
// scheduling order): the level tiebreak makes same-time changes behave
// like a levelized sweep, and the full order fixes the float summation
// order of a cycle's power. Its event queue is a timing wheel whose slot
// width is the gcd of the delay table's nonzero delays (20 ps under the
// default fanout-loaded model, so one time per slot), widened when
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
// The sampled phase is bit-parallel in the zero-delay scenario:
// PackedSession.StepSampled computes all 64 lanes' powers from one
// packed sweep plus an XOR diff pass over the value words (each set bit
// routes its node's weight to its lane's sum) — a sampled cycle then
// costs the same order as a hidden one. Lane k of a packed sampled step
// is bit-identical, float summation order included, to a scalar
// ZeroDelayToggle session over the same source; the property tests
// assert this for every lane. PackedSession.StepSampledWith keeps the
// general-delay path: each lane is extracted into a scalar engine for
// exact glitch accounting.
//
// The scalar simulators operate on the same dense value array, so a
// session can interleave them cycle by cycle; the packed simulator keeps
// one uint64 word per node and can extract any single lane into the
// scalar representation. All inner loops run over the circuit's frozen
// CSR view (netlist.CSR): flat kind/level/fanin/fanout arrays instead of
// per-Node slice chasing.
package sim
