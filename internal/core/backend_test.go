package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// requireGolden fails unless the two results are bit-identical in every
// estimation-visible field — the lane-layout contract: how replications
// are packed into lane sessions and spread over workers may change
// throughput, never a single bit of the answer.
func requireGolden(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if got.Power != ref.Power {
		t.Errorf("%s: power %v != %v", label, got.Power, ref.Power)
	}
	if got.HalfWidth != ref.HalfWidth {
		t.Errorf("%s: half-width %v != %v", label, got.HalfWidth, ref.HalfWidth)
	}
	if got.SampleSize != ref.SampleSize {
		t.Errorf("%s: sample size %d != %d", label, got.SampleSize, ref.SampleSize)
	}
	if got.Interval != ref.Interval {
		t.Errorf("%s: interval %d != %d", label, got.Interval, ref.Interval)
	}
	if got.HiddenCycles != ref.HiddenCycles || got.SampledCycles != ref.SampledCycles {
		t.Errorf("%s: cycles (%d, %d) != (%d, %d)", label,
			got.HiddenCycles, got.SampledCycles, ref.HiddenCycles, ref.SampledCycles)
	}
	if got.CVBeta != ref.CVBeta {
		t.Errorf("%s: cv beta %v != %v", label, got.CVBeta, ref.CVBeta)
	}
	if got.Variance != ref.Variance || got.Criterion != ref.Criterion {
		t.Errorf("%s: labeling (%q, %q) != (%q, %q)", label,
			got.Variance, got.Criterion, ref.Variance, ref.Criterion)
	}
	if got.Engine != ref.Engine || got.DelayModel != ref.DelayModel {
		t.Errorf("%s: engine (%q, %q) != (%q, %q)", label,
			got.Engine, got.DelayModel, ref.Engine, ref.DelayModel)
	}
	if got.Converged != ref.Converged {
		t.Errorf("%s: converged %v != %v", label, got.Converged, ref.Converged)
	}
	if !ref.Converged {
		t.Errorf("%s: reference run did not converge", label)
	}
}

// goldenResult expands a pinned golden row into the Result fields
// requireGolden compares (the criterion is the default one).
func goldenResult(g golden, beta float64) Result {
	return Result{
		Power: g.power, Interval: g.interval, SampleSize: g.samples, HalfWidth: g.halfWidth,
		HiddenCycles: g.hidden, SampledCycles: g.sampled, CVBeta: beta,
		Engine: g.engine, DelayModel: g.delayName,
		Criterion: stopping.OrderStatisticsFactory(stopping.DefaultSpec()).Name(),
		Converged: true,
	}
}

// goldenBackend pins the EstimateParallel results of
// TestCompiledBackendGoldenParallel (s298, seed 33): the values the
// interpreted 64-lane backend produced, which the compiled sessions
// reproduced bit for bit before that backend was retired. One field is
// not the interpreter's: the control-variate run converges on its seeded
// phase-1 samples, merges no block and so charges no replication
// warm-up — 320960 - 48×512 hidden cycles.
var goldenBackend = map[string]struct {
	g       golden
	beta    float64
	variant string
}{
	"zero-delay/plain":              {golden{0.00029914257812500004, 2, 1280, 1.3749999999999982e-05, 52544, 1920, sim.EngineCompiledZeroDelay, "zero", 0}, 0, ""},
	"zero-delay/antithetic":         {golden{0.00029635009765624975, 2, 1024, 1.2656250000000026e-05, 37056, 2368, sim.EngineCompiledZeroDelay, "zero", 0}, 0, "antithetic"},
	"general-delay/plain":           {golden{0.00036272874999999986, 2, 2000, 1.7500000000000046e-05, 29408, 2640, sim.EngineEventDriven, defaultDelay, 0}, 0, ""},
	"general-delay/control-variate": {golden{0.00036945326934601793, 2, 320, 1.386113079081532e-05, 320960 - 48*512, 960, sim.EngineEventDriven, defaultDelay, 0}, 1.5175858621575105, "control-variate"},
}

// TestCompiledBackendGoldenParallel is the golden end-to-end test of the
// lane engine: the full EstimateParallel flow reproduces the pinned
// mean, half-width, sample size and cycle split bit-for-bit, across
// power modes and every variance-reduction transform, under two
// different shard layouts (two and three workers split the replications
// into different lane sessions), so the lane→seed contract itself is
// under test, not just the per-step semantics.
func TestCompiledBackendGoldenParallel(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	cases := []struct {
		label    string
		mode     power.PowerMode
		variance vr.Mode
		reps     int
	}{
		{"zero-delay/plain", power.ModeZeroDelay, vr.ModeNone, 96},
		{"zero-delay/antithetic", power.ModeZeroDelay, vr.ModeAntithetic, 64},
		{"general-delay/plain", power.ModeGeneralDelay, vr.ModeNone, 48},
		{"general-delay/control-variate", power.ModeGeneralDelay, vr.ModeControlVariate, 48},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			t.Parallel()
			want := goldenBackend[tc.label]
			ref := goldenResult(want.g, want.beta)
			ref.Variance = want.variant
			opts := DefaultOptions()
			opts.Mode = tc.mode
			opts.Variance.Mode = tc.variance
			opts.Replications = tc.reps
			for _, workers := range []int{2, 3} {
				opts.Workers = workers
				got, err := EstimateParallel(tb, factory, 33, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireGolden(t, fmt.Sprintf("%s/workers%d", tc.label, workers), ref, got)
			}
		})
	}
}

// TestCompiledBackendAllZeroUpgradeEngine pins the all-zero-delay
// upgrade path: a general-delay run over a zero delay table is silently
// upgraded to word-parallel sampling, and Result.Engine must name the
// engine that actually observed it — the compiled zero-delay engine —
// with the pinned estimate.
func TestCompiledBackendAllZeroUpgradeEngine(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	got, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := golden{4.1892510775862074e-05, 2, 1856, 1.8750000000000083e-06, 12736, 2496, sim.EngineCompiledZeroDelay, "zero", 0}
	requireGolden(t, "all-zero upgrade", goldenResult(want, 0), got)
}

// TestCompiledBackendGoldenStreamed checks the streamed (cluster
// worker) path: StreamReplications blocks are bit-identical across
// shard layouts (one 96-lane session vs two 48-lane ones) and match the
// pinned sample stream.
func TestCompiledBackendGoldenStreamed(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	collect := func(workers int) [][]float64 {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.Workers = workers
		var blocks [][]float64
		err := StreamReplications(t.Context(), tb, factory, 21, opts, vr.Plan{},
			2, 0, 96, 4, 0, 3, 0, func(b ReplicationBlock) error {
				s := make([]float64, len(b.Samples))
				copy(s, b.Samples)
				blocks = append(blocks, s)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	ref := collect(2)
	got := collect(1)
	if len(ref) != len(got) {
		t.Fatalf("block counts %d != %d", len(got), len(ref))
	}
	// FNV-1a over the samples' bits, in stream order.
	var n int
	var sum float64
	var h uint64 = 14695981039346656037
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			t.Fatalf("block %d: lengths %d != %d", i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if ref[i][j] != got[i][j] {
				t.Fatalf("block %d sample %d: one shard %v, two shards %v", i, j, got[i][j], ref[i][j])
			}
			n++
			sum += ref[i][j]
			h ^= math.Float64bits(ref[i][j])
			h *= 1099511628211
		}
	}
	if n != 1152 || sum != 0.34741500000000025 || h != 0x29f88c4da71a15c6 {
		t.Errorf("stream (n=%d, sum=%v, fnv=%x), want (1152, 0.34741500000000025, 29f88c4da71a15c6)", n, sum, h)
	}
}

// TestBlockedGoldenS38417 is the large-circuit golden test of the
// cache-blocked and level-parallel executors at estimator level: the
// full EstimateParallel flow on s38417 must produce bit-identical
// results whether the compiled programs run as one linear pass
// (CacheBudget -1), cache-blocked segments (a deliberately tiny budget
// that forces many segments even at w=1), or level waves across
// goroutines (SessionWorkers 3). A fixed interval and a loose accuracy
// spec keep the run test-sized; the contract is exact equality, not
// statistics.
func TestBlockedGoldenS38417(t *testing.T) {
	c := bench89.MustGet("s38417")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	base := func() Options {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.Replications = 64
		opts.Workers = 2
		opts.MaxSamples = 1024 // cap the run; unconverged is fine for identity
		opts.Spec.RelErr = 0.5
		return opts
	}
	run := func(label string, mutate func(*Options)) Result {
		opts := base()
		mutate(&opts)
		res, err := EstimateParallelWithInterval(tb, factory, 7, opts, 2)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	ref := run("unblocked", func(o *Options) { o.CacheBudget = -1 })
	blocked := run("blocked", func(o *Options) { o.CacheBudget = 32 << 10 })
	parallel := run("parallel", func(o *Options) { o.SessionWorkers = 3 })
	if blocked.Power != ref.Power || blocked.HalfWidth != ref.HalfWidth || blocked.SampleSize != ref.SampleSize {
		t.Errorf("blocked: (%v, %v, %d) != unblocked (%v, %v, %d)",
			blocked.Power, blocked.HalfWidth, blocked.SampleSize, ref.Power, ref.HalfWidth, ref.SampleSize)
	}
	if parallel.Power != ref.Power || parallel.HalfWidth != ref.HalfWidth || parallel.SampleSize != ref.SampleSize {
		t.Errorf("parallel: (%v, %v, %d) != unblocked (%v, %v, %d)",
			parallel.Power, parallel.HalfWidth, parallel.SampleSize, ref.Power, ref.HalfWidth, ref.SampleSize)
	}
	if blocked.HiddenCycles != ref.HiddenCycles || parallel.HiddenCycles != ref.HiddenCycles {
		t.Errorf("hidden cycles diverge: unblocked %d, blocked %d, parallel %d",
			ref.HiddenCycles, blocked.HiddenCycles, parallel.HiddenCycles)
	}
}

// TestSessionWorkersHugeRequest: an absurd SessionWorkers request on a
// ten-gate circuit finishes promptly and bit-identical to
// single-threaded sessions. Level partitions run at most GOMAXPROCS
// workers, and no more than their widest wave has segments, so the
// request cannot start thousands of barrier spinners per program pass.
func TestSessionWorkersHugeRequest(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	run := func(sessionWorkers int) Result {
		opts := DefaultOptions()
		opts.Replications = 64
		opts.SessionWorkers = sessionWorkers
		res, err := EstimateParallel(tb, factory, 11, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	done := make(chan Result, 1)
	go func() { done <- run(100000) }()
	select {
	case got := <-done:
		requireGolden(t, "session-workers 100000", ref, got)
	case <-time.After(20 * time.Second):
		t.Fatal("SessionWorkers 100000 on s27 still running after 20s")
	}
}
