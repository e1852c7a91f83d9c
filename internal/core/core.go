package core

import (
	"fmt"
	"runtime"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/randtest"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// Options collects the tunables of the estimation procedure. The zero
// value is not usable; start from DefaultOptions.
type Options struct {
	// Alpha is the significance level of the randomness test (Eq. 7).
	// The paper's experiments use 0.20.
	Alpha float64
	// SeqLen is the power sequence length fed to the randomness test at
	// each trial interval. The paper chooses 320 ("the gain in
	// statistical stability ... is marginal if it is any longer").
	SeqLen int
	// MaxInterval caps the trial independence interval; selection stops
	// there and marks the result Capped. A guard against non-mixing
	// behaviour rather than an expected outcome (paper observes
	// intervals of a few cycles).
	MaxInterval int
	// Spec is the accuracy specification (paper: 5% error, 0.99
	// confidence).
	Spec stopping.Spec
	// NewCriterion builds the stopping criterion (paper default:
	// order statistics, their ref [7]).
	NewCriterion stopping.Factory
	// Test is the randomness test (paper: ordinary runs test).
	Test randtest.Test
	// CheckEvery is the stopping-criterion cadence in samples. Table 1
	// sample sizes are all congruent to SeqLen modulo 32.
	CheckEvery int
	// MaxSamples aborts estimation if convergence is not reached; a
	// safety net, not a tuning knob.
	MaxSamples int
	// WarmupCycles is the number of hidden (zero-delay) cycles every
	// sequence runs from reset before it is observed, letting the state
	// process approach stationarity: the phase-1 selection lane warms up
	// before interval selection, and every replication lane warms up
	// before its first sampled cycle. A hidden cycle is much cheaper than
	// a sampled one, but warm-up runs once per replication, so at the
	// default 512 cycles it is most of a job's hidden cycles (262,656 of
	// 270,784 on s1494 with 512 replications). Estimates on
	// slowly-relaxing circuits are biased by the reset transient if this
	// is too small.
	WarmupCycles int
	// ReuseTestSamples feeds the accepted randomness-test sequence into
	// the stopping criterion as its first SeqLen samples. Table 1's
	// sample sizes (all = 320 + k*32) indicate the paper does this.
	ReuseTestSamples bool
	// Replications is the number of independent replications
	// EstimateParallel runs concurrently, packed into compiled lane
	// sessions of up to sim.CompiledMaxLanes lanes. 0 means sim.WordLanes
	// (64); see ReplicationCount. One round — a sample from every
	// replication — must fit the sample budget (see Validate). Ignored by
	// the serial estimators.
	Replications int
	// Workers bounds the goroutine pool of EstimateParallel. 0 means
	// GOMAXPROCS; see WorkerCount. The estimate is independent of the
	// worker count: replication seeds are fixed and samples are merged
	// in replication order.
	Workers int
	// Mode selects the power-observation scenario for sampled cycles:
	// general-delay (event-driven, glitches included — the paper's
	// configuration and the zero-value default) or zero-delay (functional
	// transitions only, bit-parallel across replication lanes). It is
	// honoured by the estimators that build their own sessions
	// (EstimateParallel and friends); the session-based estimators follow
	// the engine of the session they are handed (Testbench.NewSessionMode).
	Mode power.PowerMode
	// SessionWorkers > 1 runs each compiled session's per-level
	// instruction waves across this many goroutines, so one big-circuit
	// replication block can use several cores on top of the
	// replication-level pool. Result-invariant (deterministic
	// segment→worker mapping, disjoint writes per wave). 0 or 1 keeps
	// sessions single-threaded.
	SessionWorkers int
	// CacheBudget bounds the compiled sessions' cache-blocked execution
	// scratch working set in bytes. 0 selects the default
	// (compile.DefaultBudgetBytes, ~L2/2); negative disables blocking.
	// Result-invariant; sessions whose register files already fit run
	// unblocked either way.
	CacheBudget int
	// Variance selects a variance-reduction transform for the sampling
	// phase (see internal/vr): antithetic replication pairing, or a
	// control-variate correction by the same-cycle zero-delay toggle
	// power. The zero value is the paper's plain estimator. Honoured by
	// the parallel estimators only (the transforms are defined over the
	// replication space); the serial estimators reject a non-plain mode.
	Variance vr.Spec
	// Breakdown enables per-node power attribution: the sampled phase
	// accumulates per-node transition counts alongside the power samples
	// and the Result carries a ranked dynamic+leakage report
	// (power.BreakdownReport). Counts are integers merged by addition, so
	// the report is bit-identical across lane widths, worker counts and
	// any partition of the replication space. Honoured by the parallel
	// estimators only (the serial ones have no power model in scope);
	// costs one popcount per node word per sampled cycle when on, nothing
	// when off.
	Breakdown bool
	// Progress, if non-nil, is called from the estimator goroutine after
	// every merged block of samples (roughly every CheckEvery) with a
	// running snapshot of the estimate. It must be cheap; it is never
	// called concurrently with itself. Long-running callers (the
	// dipe-server job manager) use it to surface live job status. It does
	// not affect the estimate.
	Progress func(Progress)
	// Metrics, if non-nil, receives convergence telemetry (rounds,
	// samples, half-width, samples/s) from the Merger after every merged
	// block — both the in-process sampling tail and the cluster
	// coordinator's merge loop flow through it. Like Progress it never
	// affects the estimate; nil costs one branch per block.
	Metrics *Metrics
}

// Progress is a point-in-time snapshot of a running estimation,
// delivered to Options.Progress as samples accumulate.
type Progress struct {
	// Samples is the number of power samples consumed by the stopping
	// criterion so far.
	Samples int
	// Power is the running estimate in watts.
	Power float64
	// HalfWidth is the current confidence half-width in watts.
	HalfWidth float64
	// Interval is the independence interval in use.
	Interval int
	// Rounds is the number of replication rounds merged so far.
	Rounds int
	// Elapsed is the wall-clock seconds since the sampling phase
	// started (this process's share of it, under a resumed job).
	Elapsed float64
}

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:            0.20,
		SeqLen:           320,
		MaxInterval:      64,
		Spec:             stopping.DefaultSpec(),
		NewCriterion:     stopping.OrderStatisticsFactory,
		Test:             randtest.OrdinaryRuns{},
		CheckEvery:       32,
		MaxSamples:       1 << 21,
		WarmupCycles:     512,
		ReuseTestSamples: true,
	}
}

// Validate checks the options for usability.
func (o Options) Validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("core: significance level %g outside (0,1)", o.Alpha)
	}
	if o.SeqLen < 32 {
		return fmt.Errorf("core: sequence length %d too short for the runs test", o.SeqLen)
	}
	if o.MaxInterval < 0 {
		return fmt.Errorf("core: negative MaxInterval %d", o.MaxInterval)
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if o.NewCriterion == nil {
		return fmt.Errorf("core: NewCriterion is nil")
	}
	if o.Test == nil {
		return fmt.Errorf("core: Test is nil")
	}
	if o.CheckEvery < 1 {
		return fmt.Errorf("core: CheckEvery %d must be >= 1", o.CheckEvery)
	}
	if o.MaxSamples < o.SeqLen+o.CheckEvery {
		return fmt.Errorf("core: MaxSamples %d below SeqLen+CheckEvery", o.MaxSamples)
	}
	if o.WarmupCycles < 0 {
		return fmt.Errorf("core: negative WarmupCycles %d", o.WarmupCycles)
	}
	if o.Replications < 0 {
		return fmt.Errorf("core: negative Replications %d", o.Replications)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", o.Workers)
	}
	if o.SessionWorkers < 0 {
		return fmt.Errorf("core: negative SessionWorkers %d", o.SessionWorkers)
	}
	if err := o.Mode.Validate(); err != nil {
		return err
	}
	if err := o.Variance.Validate(o.ReplicationCount(), o.Mode.IsZeroDelay()); err != nil {
		return err
	}
	// Not even the first round fits after the largest possible phase-1
	// seed: the run could only stop unconverged before sampling anything.
	if roundBudget(o.MaxSamples, o.seeded(), o.perRound()) < 1 {
		return fmt.Errorf("core: Replications %d: one round of %d samples does not fit the sample budget (MaxSamples %d, %d of them seeded by phase 1)",
			o.ReplicationCount(), o.perRound(), o.MaxSamples, o.seeded())
	}
	return nil
}

// ReplicationCount returns the effective replication count of the
// parallel estimators: Replications, with 0 meaning sim.WordLanes (one
// full word of lanes).
func (o Options) ReplicationCount() int {
	if o.Replications == 0 {
		return sim.WordLanes
	}
	return o.Replications
}

// perRound returns the number of criterion samples one merged round
// yields: the replication count, halved under antithetic pairing.
func (o Options) perRound() int {
	if o.Variance.Mode.Canonical() == vr.ModeAntithetic {
		return o.ReplicationCount() / 2
	}
	return o.ReplicationCount()
}

// seeded returns the most samples phase 1 can seed the criterion with:
// the accepted SeqLen-sample sequence under ReuseTestSamples.
func (o Options) seeded() int {
	if o.ReuseTestSamples {
		return o.SeqLen
	}
	return 0
}

// roundBudget is the sampling phase's budget rule: how many more rounds
// of perRound criterion samples fit MaxSamples once n samples are in.
func roundBudget(maxSamples, n, perRound int) int {
	return (maxSamples - n) / perRound
}

// WorkerCount returns the goroutine pool size for a range of n
// replications: Workers, with 0 meaning GOMAXPROCS, never more than n.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// Testbench bundles a circuit with its timing and power models — the
// "Load Circuit Description / Timing Model / Power Model" box of Fig. 1.
// One Testbench serves any number of sessions and estimator runs.
type Testbench struct {
	Circuit *netlist.Circuit
	Delays  *delay.Table
	Model   *power.Model
	weights []float64
}

// NewTestbench instruments a frozen circuit with the given models.
func NewTestbench(c *netlist.Circuit, dm delay.Model, cm power.CapModel, supply power.Supply) *Testbench {
	m := power.NewModel(c, cm, supply)
	return &Testbench{
		Circuit: c,
		Delays:  delay.BuildTable(c, dm),
		Model:   m,
		weights: m.Weights(),
	}
}

// DefaultTestbench instruments a circuit with the experiment defaults:
// fanout-loaded delays, the default capacitance model, 5 V / 20 MHz.
func DefaultTestbench(c *netlist.Circuit) *Testbench {
	return NewTestbench(c, delay.DefaultFanoutLoaded(), power.DefaultCapModel(), power.DefaultSupply())
}

// NewSession creates a simulation session over the testbench with the
// given input source and the default general-delay (event-driven) power
// engine.
func (tb *Testbench) NewSession(src vectors.Source) *sim.Session {
	return sim.NewSession(tb.Circuit, tb.Delays, src, tb.weights)
}

// Engine builds the scalar power engine realizing a power mode on this
// testbench: the event-driven simulator over the testbench's delay
// table for general-delay, the zero-delay toggle engine otherwise.
func (tb *Testbench) Engine(mode power.PowerMode) sim.PowerEngine {
	if mode.IsZeroDelay() {
		return sim.NewZeroDelayToggle(tb.Circuit)
	}
	return sim.NewEventDriven(tb.Circuit, tb.Delays)
}

// NewSessionMode creates a session whose sampled cycles are observed
// under the given power mode. The zero mode value gives exactly
// NewSession's general-delay behaviour.
func (tb *Testbench) NewSessionMode(src vectors.Source, mode power.PowerMode) *sim.Session {
	return sim.NewSessionEngine(tb.Circuit, tb.Engine(mode), src, tb.weights)
}

// Weights exposes the per-transition power weights (watts per
// transition); read-only.
func (tb *Testbench) Weights() []float64 { return tb.weights }
