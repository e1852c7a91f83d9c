// Package power implements the paper's power dissipation model (Eq. 1):
//
//	P = VDD^2 / (2T) * sum_i C_i * n_i
//
// where C_i is the load capacitance at node i, n_i the number of logic
// transitions at node i during the clock cycle, T the clock period and
// VDD the supply voltage. C_i can absorb second-order contributions
// (short-circuit current, internal capacitance) by adjustment, exactly as
// the paper notes.
//
// What counts as a transition is the delay-model scenario, named by
// PowerMode: under ModeGeneralDelay n_i includes glitches (the paper's
// event-driven observation, Section IV); under ModeZeroDelay n_i is the
// functional toggle count (at most 1 per cycle), which excludes glitch
// power by construction and admits the word-parallel sampled phase of
// internal/sim. The mode is a first-class estimator option
// (core.Options.Mode) and API field (the service's "powerMode"); the
// gap between the two modes' estimates is the circuit's glitch power,
// the sensitivity the delay-model ablation quantifies.
//
// Alongside the switching power of Eq. 1 the model carries a static
// (leakage) component, state-independent and hence outside the
// estimation loop entirely:
//
//	P_leak(i) = GateBase + PerFanin * fanin(i)   for gates and latches
//	P_leak(i) = 0                                for inputs and constants
//	P_leak    = sum_i P_leak(i)
//
// Primary inputs and constant drivers are pads, not transistor stacks.
// The default coefficients (GateBase = 50 pW, PerFanin = 10 pW) match
// the paper's technology era — 5 V multi-micron CMOS, where
// subthreshold leakage sat orders of magnitude below switching power —
// and exist mainly so attribution reports (Model.Breakdown) can rank
// nodes by total dynamic+static power and expose the split.
package power
