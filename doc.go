// Package dipe is the public API of this repository: a from-scratch Go
// reproduction of
//
//	L.-P. Yuan, C.-C. Teng, S.-M. Kang,
//	"Statistical Estimation of Average Power Dissipation in Sequential
//	Circuits", 34th Design Automation Conference (DAC), 1997.
//
// DIPE ("distribution-independent power estimation") estimates the
// average power of a gate-level sequential circuit by Monte-Carlo
// simulation. Because latch feedback makes consecutive-cycle power
// temporally correlated, DIPE first determines an independence interval
// with a randomness test (the ordinary runs test), samples power once
// per interval with an event-driven general-delay simulator (cheap
// zero-delay simulation in between), and stops when a
// distribution-independent criterion certifies the requested accuracy.
//
// Quick start:
//
//	c, _ := dipe.Benchmark("s298")          // or dipe.LoadBench(path)
//	tb := dipe.NewTestbench(c)
//	src := dipe.NewIIDSource(len(c.Inputs), 0.5, 1)
//	res, _ := dipe.Estimate(tb.NewSession(src), dipe.DefaultOptions())
//	fmt.Println(res.Power, res.Interval, res.SampleSize)
//
// For many replications at once use EstimateParallel (lane-parallel,
// up to 512 replications per compiled session); to serve estimates over
// HTTP use NewServer, the entry point behind cmd/dipe-server.
//
// The package is a thin facade; the implementation lives in the
// internal packages, each documented with the paper section it
// implements (see also ARCHITECTURE.md and internal/README.md):
//
//   - internal/netlist, internal/logic — circuit substrate: gate-level
//     representation, .bench/BLIF I/O, frozen CSR view
//   - internal/sim — Section IV's two-phase simulation: zero-delay and
//     event-driven general-delay simulators, and the compiled
//     lane-parallel session that runs both up to 512 replications wide
//   - internal/power, internal/delay — the power model of Eq. 1 and the
//     timing models feeding it
//   - internal/randtest — Section III.A randomness tests (Eqs. 4–7)
//   - internal/core — the DIPE flow of Fig. 1: interval selection
//     (Fig. 2), estimation, parallel estimator
//   - internal/stopping — Section IV stopping criteria
//   - internal/markov — Section III's exact "first approach" (STG)
//   - internal/proba, internal/refsim, internal/maxpower — baselines
//     and companions (refs [2–4], "SIM", ref [8])
//   - internal/experiments, internal/bench89 — Section V evaluation
//   - internal/service — the estimation service behind cmd/dipe-server
package dipe
