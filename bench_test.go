// Benchmark harness: one benchmark per table/figure of the paper plus
// micro-benchmarks of the simulation and statistics engines.
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks run scaled-down configurations per
// iteration (the full campaigns live in cmd/dipe-experiments); custom
// metrics report the paper's machine-independent costs: samples per run
// and simulated cycles per run.
package dipe_test

import (
	"testing"

	"repro"
	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randtest"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
)

// table1Circuits is the benchmark subset exercised per iteration; the
// spread covers small, medium and large table rows.
var table1Circuits = []string{"s27", "s298", "s832", "s1494"}

// BenchmarkTable1Estimate measures one full DIPE estimation run (Table 1
// row) per circuit: interval selection + sampling to the paper's spec.
func BenchmarkTable1Estimate(b *testing.B) {
	for _, name := range table1Circuits {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			var samples, cycles float64
			for i := 0; i < b.N; i++ {
				res, err := dipe.Estimate(tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1))), dipe.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				samples += float64(res.SampleSize)
				cycles += float64(res.TotalCycles())
			}
			b.ReportMetric(samples/float64(b.N), "samples/run")
			b.ReportMetric(cycles/float64(b.N), "cycles/run")
		})
	}
}

// BenchmarkTable1Reference measures the brute-force SIM reference that
// Table 1's estimates are compared against (per 10k cycles).
func BenchmarkTable1Reference(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dipe.RunReference(tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1))), 64, 10_000)
			}
		})
	}
}

// BenchmarkTable2Run measures the repeated-run experiment of Table 2 at
// a reduced run count (the statistic aggregation is the same code path
// the full campaign uses).
func BenchmarkTable2Run(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Circuits = []string{"s27"}
	cfg.Runs = 5
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ZTrace measures the z-statistic sweep of Fig. 3
// (trial intervals 0..10) at a reduced sequence length.
func BenchmarkFigure3ZTrace(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1)))
		if _, err := dipe.ZTrace(s, dipe.DefaultOptions(), 10, 1_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeqLen measures ablation A1 (sequence-length sweep)
// at a reduced configuration.
func BenchmarkAblationSeqLen(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSeqLen(cfg, "s298", []int{80, 320}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlpha measures ablation A2 (significance sweep).
func BenchmarkAblationAlpha(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAlpha(cfg, "s27", []float64{0.1, 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStopping measures ablation A3 (criterion comparison).
func BenchmarkAblationStopping(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStopping(cfg, "s27"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWarmup measures ablation A4 (dynamic vs fixed
// warm-up cost).
func BenchmarkAblationWarmup(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWarmup(cfg, "s27", []int{20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInputs measures ablation A5 (correlated inputs).
func BenchmarkAblationInputs(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationInputs(cfg, "s27", []float64{0, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine micro-benchmarks ---------------------------------------------

// BenchmarkEventDrivenCycle measures one sampled (general-delay) clock
// cycle across circuit sizes — the dominant cost of estimation.
func BenchmarkEventDrivenCycle(b *testing.B) {
	for _, name := range []string{"s298", "s1494", "s5378", "s15850"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, 1))
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampled(nil)
				events += s.Events()
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/cycle")
		})
	}
}

// BenchmarkZeroDelayCycle measures one hidden (zero-delay) cycle — the
// cost of advancing through the independence interval.
func BenchmarkZeroDelayCycle(b *testing.B) {
	for _, name := range []string{"s298", "s832", "s1494", "s5378", "s15850"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHidden()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkCompiledHidden measures one hidden cycle of a 512-lane
// compiled session (the Step program): 512 replications advance per
// iteration, so the cycles/sec metric counts per-replication clock
// cycles and is directly comparable with BenchmarkZeroDelayCycle's. The
// ≥10x floor over the scalar baseline is gated in CI by the
// dipe-experiments -engine report (BENCH_1.json).
func BenchmarkCompiledHidden(b *testing.B) {
	for _, name := range []string{"s298", "s832", "s1494", "s5378"} {
		c := bench89.MustGet(name)
		b.Run(name, func(b *testing.B) {
			srcs := make([]vectors.Source, sim.CompiledMaxLanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
			}
			s := sim.NewCompiledSession(c, srcs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHidden()
			}
			b.ReportMetric(float64(b.N*sim.CompiledMaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkGeneralDelaySampled measures one general-delay sampled cycle
// of a 512-lane compiled session: every lane observed under the default
// fanout-loaded delays by the word-level waveform engine, 64 lanes per
// machine word. ns/op covers all 512 lanes; cycles/sec counts
// per-replication cycles, comparable with BenchmarkEventDrivenCycle's.
func BenchmarkGeneralDelaySampled(b *testing.B) {
	for _, name := range []string{"s1494", "s5378"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			srcs := make([]vectors.Source, sim.CompiledMaxLanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
			}
			s := sim.NewCompiledSession(c, srcs)
			powers := make([]float64, sim.CompiledMaxLanes)
			s.StepHiddenN(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampledWith(tb.Delays, tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.CompiledMaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkZeroDelaySampled measures one zero-delay sampled cycle of a
// 512-lane compiled session: every lane observed by the word-level
// toggle diff of the Full program's rows, no scalar extraction at all.
func BenchmarkZeroDelaySampled(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			srcs := make([]vectors.Source, sim.CompiledMaxLanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
			}
			s := sim.NewCompiledSession(c, srcs)
			powers := make([]float64, sim.CompiledMaxLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampled(tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.CompiledMaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkEstimateParallel measures one full bit-parallel estimation
// run (64 replications, default workers) next to BenchmarkTable1Estimate.
func BenchmarkEstimateParallel(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		factory := dipe.NewIIDSourceFactory(len(c.Inputs), 0.5)
		b.Run(name, func(b *testing.B) {
			var samples, cycles float64
			for i := 0; i < b.N; i++ {
				res, err := dipe.EstimateParallel(tb, factory, int64(i+1), dipe.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				samples += float64(res.SampleSize)
				cycles += float64(res.TotalCycles())
			}
			b.ReportMetric(samples/float64(b.N), "samples/run")
			b.ReportMetric(cycles/float64(b.N), "cycles/run")
		})
	}
}

// BenchmarkRunsTest measures the ordinary runs test on a
// paper-sized (320) and a Fig. 3-sized (10000) sequence.
func BenchmarkRunsTest(b *testing.B) {
	for _, n := range []int{320, 10_000} {
		src := vectors.NewIID(1, 0.5, 1)
		buf := make([]bool, 1)
		seq := make([]float64, n)
		for i := range seq {
			src.Next(buf)
			if buf[0] {
				seq[i] = 1
			}
			seq[i] += float64(i%7) * 0.1
		}
		b.Run(benchName("L", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				randtest.OrdinaryRuns{}.Apply(seq)
			}
		})
	}
}

// BenchmarkStoppingCriteria measures per-sample cost of each criterion.
func BenchmarkStoppingCriteria(b *testing.B) {
	for _, f := range []stopping.Factory{
		stopping.NormalFactory, stopping.KSFactory, stopping.OrderStatisticsFactory,
	} {
		crit := f(stopping.DefaultSpec())
		b.Run(crit.Name(), func(b *testing.B) {
			crit.Reset()
			for i := 0; i < b.N; i++ {
				crit.Add(float64(i % 97))
				if i%32 == 31 {
					crit.Done()
				}
			}
		})
	}
}

// BenchmarkSTGExtract measures exact STG extraction on s27 (the
// feasibility boundary of the paper's "first approach").
func BenchmarkSTGExtract(b *testing.B) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := dipe.ExtractSTG(c, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalSelection measures the Fig. 2 procedure alone.
func BenchmarkIntervalSelection(b *testing.B) {
	c := bench89.MustGet("s298")
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1)))
		if _, err := dipe.SelectInterval(s, dipe.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures synthetic circuit generation.
func BenchmarkGenerate(b *testing.B) {
	sig, _ := bench89.Lookup("s5378")
	for i := 0; i < b.N; i++ {
		if _, err := bench89.Generate(sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCreation measures testbench + session setup for the
// largest circuit (amortized across runs in the campaigns).
func BenchmarkSessionCreation(b *testing.B) {
	c := bench89.MustGet("s15850")
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	for i := 0; i < b.N; i++ {
		sim.NewSession(c, dt, vectors.NewIID(len(c.Inputs), 0.5, 1), w)
	}
}

// BenchmarkProbabilisticAnalysis measures the signal-probability
// baseline (B1's cheap path) across sizes.
func BenchmarkProbabilisticAnalysis(b *testing.B) {
	for _, name := range []string{"s298", "s5378"} {
		c := bench89.MustGet(name)
		p := make([]float64, len(c.Inputs))
		for i := range p {
			p[i] = 0.5
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dipe.AnalyzeProbabilities(c, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxPowerSearch measures the peak-power hill climb per 512
// simulated cycles.
func BenchmarkMaxPowerSearch(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		opts := dipe.DefaultMaxPowerOptions()
		opts.Budget = 512
		opts.Seed = int64(i + 1)
		if _, err := dipe.MaxPower(tb, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseBench measures netlist parsing throughput on the largest
// generated benchmark.
func BenchmarkParseBench(b *testing.B) {
	text := netlist.BenchString(bench89.MustGet("s15850"))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ParseBenchString("s15850", text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnose measures the post-hoc sample audit.
func BenchmarkDiagnose(b *testing.B) {
	c := bench89.MustGet("s298")
	tb := dipe.NewTestbench(c)
	s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, 1))
	for i := 0; i < b.N; i++ {
		if _, err := dipe.Diagnose(s, 2, 320); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateSampling measures the exact estimator on s27 (the
// feasible corner of Section III's first approach).
func BenchmarkStateSampling(b *testing.B) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	stg, err := dipe.ExtractSTG(c, p)
	if err != nil {
		b.Fatal(err)
	}
	pi, err := stg.Stationary(1e-10, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		if _, err := dipe.EstimateByStateSampling(tb.NewSession(dipe.NewIIDSource(4, 0.5, int64(i+1))),
			stg, pi, p, dipe.DefaultSpec(), dipe.OrderStatisticsCriterion, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledObsOverhead measures the compiled s1494 duty cycle
// (3 hidden + 1 sampled step, 64 lanes) with the observability sink
// disabled — a nil atomic pointer, one branch per register-file pass —
// and enabled with live registry counters. The engine-bench CI job
// gates the enabled/disabled ratio at 1% so instrumentation can never
// creep onto the simulation critical path.
func BenchmarkCompiledObsOverhead(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{{"disabled", nil}, {"enabled", obs.NewRegistry()}} {
		b.Run(mode.name, func(b *testing.B) {
			sim.RegisterCompiledMetrics(mode.reg)
			defer sim.RegisterCompiledMetrics(nil)
			srcs := make([]vectors.Source, sim.WordLanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
			}
			s := sim.NewCompiledSession(c, srcs)
			powers := make([]float64, sim.WordLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHiddenN(3)
				s.StepSampled(tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.WordLanes*4)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkBreakdownOverhead measures the compiled s1494 duty cycle (3
// hidden + 1 sampled step, 64 lanes) with per-node toggle counting
// disabled — a nil accumulator, zero work — and enabled. Counting adds
// one popcount-and-add per node word per sampled step; the CI gate
// holds the enabled/disabled ratio at 5% so breakdown runs stay within
// noise of scalar-only estimation.
func BenchmarkBreakdownOverhead(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	for _, mode := range []struct {
		name     string
		counting bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srcs := make([]vectors.Source, sim.WordLanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
			}
			s := sim.NewCompiledSession(c, srcs)
			if mode.counting {
				s.AccumulateToggles(make([]uint64, c.NumNodes()))
			}
			powers := make([]float64, sim.WordLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHiddenN(3)
				s.StepSampled(tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.WordLanes*4)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return prefix + "=" + itoa(n/1000) + "k"
	default:
		return prefix + "=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
