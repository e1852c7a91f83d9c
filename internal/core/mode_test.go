package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// golden holds results captured from the estimator BEFORE the power-
// engine refactor (commit 32efb46, seed 42, default options, 64
// replications for the parallel rows). The default general-delay path
// must keep reproducing them bit-for-bit: the refactor routes the same
// computation through the PowerEngine interface without changing a
// single arithmetic step. The event-driven rows' power and half-width
// bits were re-baselined once, when the event-driven simulator became
// canonical (each gate evaluated once per instant, a cycle's power
// summed in node-index order); intervals, sample sizes, cycle counts and
// toggle totals did not move.
type golden struct {
	power             float64
	interval          int
	samples           int
	halfWidth         float64
	hidden, sampled   uint64
	engine, delayName string
	toggles           uint64 // breakdown toggle total over the ranked rows (0 = off)
}

var defaultDelay = delay.DefaultFanoutLoaded().Name()

var goldenSerial = map[string]golden{
	"s27":  {4.6707915145985263e-05, 0, 4384, 2.2656250000000059e-06, 512, 4384, sim.EngineEventDriven, defaultDelay, 0},
	"s298": {0.00035740885416666712, 1, 960, 1.7734375000000009e-05, 1472, 1280, sim.EngineEventDriven, defaultDelay, 0},
	"s832": {0.0011258945312499996, 1, 640, 5.6015625000000184e-05, 1152, 960, sim.EngineEventDriven, defaultDelay, 0},
}

var goldenParallel = map[string]golden{
	"s27":                           {4.5485733695652114e-05, 0, 1472, 2.2656250000000026e-06, 33280, 1472, sim.EngineEventDriven, defaultDelay, 0},
	"s298":                          {0.0003563359375000007, 1, 2560, 1.6640625e-05, 35840, 2880, sim.EngineEventDriven, defaultDelay, 0},
	"s832":                          {0.0011188454861111123, 1, 1152, 4.7187499999999812e-05, 34432, 1472, sim.EngineEventDriven, defaultDelay, 0},
	"s298/zero-delay":               {0.00029118447580645136, 1, 1984, 1.4531250000000031e-05, 35264, 2304, sim.EngineCompiledZeroDelay, "zero", 0},
	"s298/antithetic":               {0.00036041068412162196, 1, 1184, 1.7031249999999984e-05, 35328, 2368, sim.EngineEventDriven, defaultDelay, 0},
	"s298/control-variate":          {0.00036443264781648371, 1, 320, 1.2348896207573293e-05, 295744, 640, sim.EngineEventDriven, defaultDelay, 0},
	"s298/control-variate-unseeded": {0.00036477037304260602, 1, 192, 1.4686594741795961e-05, 328704, 832, sim.EngineEventDriven, defaultDelay, 0},
	"s298/breakdown":                {0.0003563359375000007, 1, 2560, 1.6640625e-05, 35840, 2880, sim.EngineEventDriven, defaultDelay, 78664},
	"s298/clipped":                  {0.00034419560185185215, 1, 432, 4.6093750000000019e-05, 9136, 752, sim.EngineEventDriven, defaultDelay, 12817},
}

// goldenVariants configures the goldenParallel rows keyed
// "circuit/variant": seed 42, 64 replications and default options,
// changed as listed. Captured from the estimator before the in-process
// sampling phase moved onto StreamReplications. The control-variate
// row's hidden-cycle count was re-baselined once, from 328512 to
// 295744: the run converges on its seeded phase-1 samples, merges no
// block, and no longer charges the 64×512 replication warm-up cycles
// that never ran.
var goldenVariants = map[string]func(*Options){
	"s298/zero-delay":      func(o *Options) { o.Mode = power.ModeZeroDelay },
	"s298/antithetic":      func(o *Options) { o.Variance.Mode = vr.ModeAntithetic },
	"s298/control-variate": func(o *Options) { o.Variance.Mode = vr.ModeControlVariate },
	// Converges on the seeded phase-1 samples alone above; unseeded, the
	// covariate-corrected sampling phase merges three rounds.
	"s298/control-variate-unseeded": func(o *Options) {
		o.Variance.Mode, o.ReuseTestSamples = vr.ModeControlVariate, false
	},
	"s298/breakdown": func(o *Options) { o.Breakdown = true },
	// 16 replications at CheckEvery 64 make 4-round blocks; the 120
	// samples left after the 320 seeded ones fund 7 rounds, so the
	// budget clips the second block to 3 rounds and the run stops
	// unconverged.
	"s298/clipped": func(o *Options) {
		o.Replications, o.CheckEvery, o.MaxSamples, o.Breakdown = 16, 64, 440, true
	},
}

func checkGolden(t *testing.T, name, kind string, res Result, want golden) {
	t.Helper()
	var toggles uint64
	if res.Breakdown != nil {
		for _, r := range res.Breakdown.Rows {
			toggles += r.Toggles
		}
	}
	if res.Power != want.power || res.Interval != want.interval ||
		res.SampleSize != want.samples || res.HalfWidth != want.halfWidth ||
		res.HiddenCycles != want.hidden || res.SampledCycles != want.sampled ||
		res.Engine != want.engine || res.DelayModel != want.delayName || toggles != want.toggles {
		t.Errorf("%s %s: got (P=%.17g II=%d n=%d hw=%.17g h=%d s=%d %s/%s toggles=%d), want (P=%.17g II=%d n=%d hw=%.17g h=%d s=%d %s/%s toggles=%d)",
			name, kind, res.Power, res.Interval, res.SampleSize, res.HalfWidth,
			res.HiddenCycles, res.SampledCycles, res.Engine, res.DelayModel, toggles,
			want.power, want.interval, want.samples, want.halfWidth, want.hidden, want.sampled,
			want.engine, want.delayName, want.toggles)
	}
}

// TestGeneralDelayBitIdenticalToPreRefactor pins the default path to
// pre-refactor numbers: for fixed seeds, Estimate and EstimateParallel
// must reproduce the recorded power, interval, sample size, half-width
// and cycle counts exactly.
func TestGeneralDelayBitIdenticalToPreRefactor(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s832"} {
		c, err := bench89.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tb := DefaultTestbench(c)
		w := len(c.Inputs)

		res, err := Estimate(tb.NewSession(vectors.NewIID(w, 0.5, 42)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, "serial", res, goldenSerial[name])
		if res.Engine != sim.EngineEventDriven {
			t.Errorf("%s serial: engine %q", name, res.Engine)
		}

		opts := DefaultOptions()
		opts.Replications = 64
		pres, err := EstimateParallel(tb, vectors.IIDFactory(w, 0.5), 42, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, "parallel", pres, goldenParallel[name])
		if pres.Engine != sim.EngineEventDriven || pres.DelayModel != tb.Delays.ModelName {
			t.Errorf("%s parallel: engine %q delay %q", name, pres.Engine, pres.DelayModel)
		}
	}
}

// TestParallelVariantGoldens pins the sampling phase's variant paths —
// zero-delay, antithetic, control-variate, breakdown and a budget-
// clipped unconverged run — to recorded results, bit for bit.
func TestParallelVariantGoldens(t *testing.T) {
	for name, set := range goldenVariants {
		circuit, _, _ := strings.Cut(name, "/")
		c := bench89.MustGet(circuit)
		opts := DefaultOptions()
		opts.Replications = 64
		set(&opts)
		res, err := EstimateParallel(DefaultTestbench(c), vectors.IIDFactory(len(c.Inputs), 0.5), 42, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := goldenParallel[name]
		if !ok {
			t.Errorf("%s: no golden row", name)
			continue
		}
		checkGolden(t, name, "parallel", res, want)
	}
}

// TestModeSessionMatchesDefaultSession: an explicit general-delay mode
// is the same code path as the default, bit for bit.
func TestModeSessionMatchesDefaultSession(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	w := len(c.Inputs)
	a, err := Estimate(tb.NewSession(vectors.NewIID(w, 0.5, 7)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = power.ModeGeneralDelay
	b, err := Estimate(tb.NewSessionMode(vectors.NewIID(w, 0.5, 7), opts.Mode), opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Trials, b.Trials = nil, nil
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit general-delay differs from default:\n%+v\n%+v", a, b)
	}
}

// TestZeroDelayParallelMatchesZeroTableGeneral: estimating in zero-delay
// mode on the default testbench must agree bit for bit with
// general-delay estimation on a testbench whose delay model is Zero —
// the same functional transitions are counted either way, and the
// event-driven simulator sums a cycle's power in node-index order just
// as the zero-delay engines do, so phase 1 (event-driven on one side,
// zero-delay on the other) observes identical samples.
func TestZeroDelayParallelMatchesZeroTableGeneral(t *testing.T) {
	c := bench89.MustGet("s298")
	w := len(c.Inputs)
	factory := vectors.IIDFactory(w, 0.5)

	opts := DefaultOptions()
	opts.Replications = 64
	opts.Mode = power.ModeZeroDelay
	za, err := EstimateParallel(DefaultTestbench(c), factory, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if za.Engine != sim.EngineCompiledZeroDelay || za.DelayModel != "zero" {
		t.Fatalf("zero-delay mode recorded engine %q delay %q", za.Engine, za.DelayModel)
	}

	ztb := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	gopts := DefaultOptions()
	gopts.Replications = 64
	zb, err := EstimateParallel(ztb, factory, 9, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if zb.Engine != sim.EngineCompiledZeroDelay {
		t.Fatalf("all-zero table was not upgraded to the word-parallel engine (engine %q)", zb.Engine)
	}
	if za.Interval != zb.Interval || za.SampleSize != zb.SampleSize ||
		za.Power != zb.Power || za.HalfWidth != zb.HalfWidth {
		t.Fatalf("zero-delay mode (II=%d n=%d P=%.17g hw=%.17g) vs zero-table general (II=%d n=%d P=%.17g hw=%.17g)",
			za.Interval, za.SampleSize, za.Power, za.HalfWidth, zb.Interval, zb.SampleSize, zb.Power, zb.HalfWidth)
	}
}

// TestZeroDelayBelowGeneralDelay: glitch power only adds, so the
// zero-delay estimate must come in below the general-delay estimate on
// the same circuit (well beyond statistical noise on s832, whose deep
// logic glitches heavily).
func TestZeroDelayBelowGeneralDelay(t *testing.T) {
	c := bench89.MustGet("s832")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	gopts := DefaultOptions()
	gopts.Replications = 64
	g, err := EstimateParallel(tb, factory, 5, gopts)
	if err != nil {
		t.Fatal(err)
	}
	zopts := gopts
	zopts.Mode = power.ModeZeroDelay
	z, err := EstimateParallel(tb, factory, 5, zopts)
	if err != nil {
		t.Fatal(err)
	}
	if z.Power >= g.Power {
		t.Fatalf("zero-delay power %g not below general-delay %g", z.Power, g.Power)
	}
}

// TestSerialZeroDelayMode: the session-based estimator honours a
// zero-delay session and records the engine.
func TestSerialZeroDelayMode(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	s := tb.NewSessionMode(vectors.NewIID(len(c.Inputs), 0.5, 3), power.ModeZeroDelay)
	res, err := Estimate(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != sim.EngineZeroDelay || res.DelayModel != "zero" {
		t.Fatalf("recorded engine %q delay %q", res.Engine, res.DelayModel)
	}
	if res.Power <= 0 {
		t.Fatalf("power %g", res.Power)
	}
}

// TestSelectIntervalCancellable: a cancelled context aborts interval
// selection (previously documented as non-interruptible) from both the
// serial and the parallel estimator.
func TestSelectIntervalCancellable(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := SelectIntervalCtx(ctx, tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 1)), DefaultOptions())
	if err != context.Canceled {
		t.Fatalf("SelectIntervalCtx error = %v, want context.Canceled", err)
	}
	_, err = EstimateCtx(ctx, tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 1)), DefaultOptions())
	if err != context.Canceled {
		t.Fatalf("EstimateCtx error = %v, want context.Canceled", err)
	}
	_, err = EstimateParallelCtx(ctx, tb, vectors.IIDFactory(len(c.Inputs), 0.5), 1, DefaultOptions())
	if err != context.Canceled {
		t.Fatalf("EstimateParallelCtx error = %v, want context.Canceled", err)
	}
}

// TestFinalProgressSnapshot: the last Progress callback always matches
// the returned result — on convergence and on cancellation — so job
// status pages never show a stale last block.
func TestFinalProgressSnapshot(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)

	var last *Progress
	opts := DefaultOptions()
	opts.Replications = 16
	opts.Progress = func(p Progress) { last = &p }
	res, err := EstimateParallel(tb, factory, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Samples != res.SampleSize || last.Power != res.Power {
		t.Fatalf("final progress %+v does not match result (n=%d P=%g)", last, res.SampleSize, res.Power)
	}

	// Cancelled before any block: the terminal snapshot must still fire
	// and reflect the partial (seed-sample-only) state.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	last = nil
	pres, err := EstimateParallelWithIntervalCtx(ctx, tb, factory, 2, opts, 1)
	if err != context.Canceled {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if last == nil || last.Samples != pres.SampleSize {
		t.Fatalf("no terminal progress snapshot on cancellation (last=%+v, n=%d)", last, pres.SampleSize)
	}
}

// scalarResumePoint is the pre-sampling phase on a scalar Session, the
// reference PreparePlanCtx must reproduce bit for bit: warm-up and
// SelectIntervalCtx on tb.NewSessionMode(src(seed)), then ResolvePlan.
// A fixed-interval control-variate calibration is collected by hand on
// a second scalar session (StepSampledPair at the fixed interval).
func scalarResumePoint(t *testing.T, tb *Testbench, src vectors.Factory, seed int64, opts Options, fixed *int) ResumePoint {
	t.Helper()
	ctx := context.Background()
	var (
		rp  ResumePoint
		sel *IntervalSelection
	)
	if fixed == nil {
		s := tb.NewSessionMode(src(seed), opts.Mode)
		s.StepHiddenN(opts.WarmupCycles)
		got, err := SelectIntervalCtx(ctx, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sel = &got
		rp.Interval, rp.Capped, rp.Trials, rp.SeedToggles = got.Interval, got.Capped, got.Trials, got.Toggles
		rp.Hidden, rp.Sampled = s.HiddenCycles, s.SampledCycles
	} else {
		rp.Interval = *fixed
		if opts.Variance.Mode.Canonical() == vr.ModeControlVariate {
			s := tb.NewSessionMode(src(seed), opts.Mode)
			s.StepHiddenN(opts.WarmupCycles)
			var xs, cs []float64
			for i := 0; i < opts.SeqLen; i++ {
				s.StepHiddenN(*fixed)
				x, c := s.StepSampledPair(nil)
				xs, cs = append(xs, x), append(cs, c)
			}
			rp.Plan = vr.Plan{Mode: vr.ModeControlVariate, Beta: vr.EstimateBeta(xs, cs)}
			rp.Hidden, rp.Sampled = s.HiddenCycles, s.SampledCycles
			if rp.Plan.Beta != 0 {
				mean, cost := controlMean(tb, src, seed, opts)
				rp.Plan.ControlMean = mean
				rp.Hidden += cost.Hidden
			}
			return rp
		}
	}
	plan, seedSeq, cal, err := ResolvePlan(ctx, tb, src, seed, opts, rp.Interval, sel)
	if err != nil {
		t.Fatal(err)
	}
	rp.Plan, rp.SeedSeq = plan, seedSeq
	rp.Hidden += cal.Hidden
	rp.Sampled += cal.Sampled
	return rp
}

// sameResumePoint fails unless two resume points agree bit for bit.
func sameResumePoint(t *testing.T, label string, got, want ResumePoint) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if got.Interval != want.Interval || got.Capped != want.Capped ||
		got.Hidden != want.Hidden || got.Sampled != want.Sampled {
		t.Errorf("%s: interval/capped/hidden/sampled %d/%v/%d/%d, want %d/%v/%d/%d", label,
			got.Interval, got.Capped, got.Hidden, got.Sampled, want.Interval, want.Capped, want.Hidden, want.Sampled)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Errorf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	} else {
		for i, tr := range got.Trials {
			w := want.Trials[i]
			if tr.Interval != w.Interval || tr.Accepted != w.Accepted || tr.Degenerate != w.Degenerate ||
				math.Float64bits(tr.Z) != math.Float64bits(w.Z) || math.Float64bits(tr.PValue) != math.Float64bits(w.PValue) {
				t.Errorf("%s: trial %d %+v, want %+v", label, i, tr, w)
			}
		}
	}
	if !reflect.DeepEqual(bits(got.SeedSeq), bits(want.SeedSeq)) {
		t.Errorf("%s: seed sequence differs (%d vs %d samples)", label, len(got.SeedSeq), len(want.SeedSeq))
	}
	if !reflect.DeepEqual(got.SeedToggles, want.SeedToggles) {
		t.Errorf("%s: seed toggles differ", label)
	}
	if got.Plan.Mode != want.Plan.Mode || math.Float64bits(got.Plan.Beta) != math.Float64bits(want.Plan.Beta) ||
		math.Float64bits(got.Plan.ControlMean) != math.Float64bits(want.Plan.ControlMean) {
		t.Errorf("%s: plan %+v, want %+v", label, got.Plan, want.Plan)
	}
}

// TestPreparePlanMatchesScalarRoute is the phase-1 differential:
// PreparePlanCtx's ResumePoint — interval, cap flag, every trial's
// statistics, the seed sequence and toggles, the plan and the cycle
// tally — equals the scalar-session route, for every
// goldenVariants option set (general-delay, zero-delay, antithetic,
// control-variate, breakdown, clipped), with and without a fixed
// interval, and for an all-zero delay table under general-delay mode.
func TestPreparePlanMatchesScalarRoute(t *testing.T) {
	c := bench89.MustGet("s298")
	src := vectors.IIDFactory(len(c.Inputs), 0.5)
	zeroTB := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	type row struct {
		name string
		tb   *Testbench
		set  func(*Options)
	}
	rows := []row{
		{"s298", DefaultTestbench(c), func(*Options) {}},
		{"s298/all-zero-table", zeroTB, func(*Options) {}},
		{"s298/all-zero-table/breakdown", zeroTB, func(o *Options) { o.Breakdown = true }},
	}
	for name, set := range goldenVariants {
		rows = append(rows, row{name, DefaultTestbench(c), set})
	}
	fixed := 2
	for _, r := range rows {
		opts := DefaultOptions()
		opts.Replications = 64
		r.set(&opts)
		for _, fx := range []*int{nil, &fixed} {
			label := r.name
			if fx != nil {
				label += "/fixed"
			}
			got, err := PreparePlanCtx(context.Background(), r.tb, src, 42, opts, fx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameResumePoint(t, label, got, scalarResumePoint(t, r.tb, src, 42, opts, fx))
		}
	}
}
