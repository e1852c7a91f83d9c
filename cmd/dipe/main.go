// Command dipe estimates the average power dissipation of a gate-level
// sequential circuit with the DAC'97 DIPE technique: independence
// interval selection by randomness test, two-phase power sampling, and a
// distribution-independent stopping criterion.
//
// Usage:
//
//	dipe -circuit s298                      # built-in benchmark
//	dipe -bench path/to/netlist.bench       # ISCAS89 .bench file
//	dipe -circuit s1494 -ztrace 30          # Fig. 3 style z trace
//	dipe -circuit s298 -ref 200000          # long reference instead
//
// Flags tune the paper's parameters (significance level, sequence
// length, accuracy specification, stopping criterion, input statistics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/delay"
	"repro/internal/vcd"
)

// dumpVCD runs the circuit for a number of sampled cycles with a
// waveform observer attached.
func dumpVCD(tb *dipe.Testbench, src dipe.Source, path string, cycles int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := tb.NewSession(src)
	s.StepHiddenN(64) // settle away from reset before recording
	period := delay.Picoseconds(tb.Model.Supply.ClockPeriod * 1e12)
	w := vcd.New(f, tb.Circuit, nil, period)
	if err := w.Header(s.Values()); err != nil {
		return err
	}
	w.Attach(s)
	for i := 0; i < cycles; i++ {
		w.BeginCycle()
		s.StepSampled(nil)
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Sync()
}

// reportTopConsumers accumulates per-node transition counts over a
// counting reference run and prints the highest-power nodes through the
// same attribution report as -breakdown.
func reportTopConsumers(c *dipe.Circuit, tb *dipe.Testbench, src dipe.Source, n int) {
	const cycles = 20_000
	s := tb.NewSession(src)
	s.StepHiddenN(256)
	counts := make([]uint64, c.NumNodes())
	for i := 0; i < cycles; i++ {
		s.StepSampled(counts)
	}
	printBreakdown(tb.Model.Breakdown(c, counts, cycles), n)
}

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in benchmark name (s27, s208, ..., s15850)")
		benchPath   = flag.String("bench", "", "path to an ISCAS89 .bench netlist")
		blifPath    = flag.String("blif", "", "path to a BLIF netlist")
		alpha       = flag.Float64("alpha", 0.20, "randomness-test significance level")
		seqLen      = flag.Int("seqlen", 320, "randomness-test power sequence length")
		relErr      = flag.Float64("err", 0.05, "maximum relative error")
		confidence  = flag.Float64("conf", 0.99, "confidence level")
		criterion   = flag.String("criterion", "order-statistics", "stopping criterion: normal | ks | order-statistics")
		test        = flag.String("test", "runs", "randomness test: runs | updown | vonneumann")
		powerMode   = flag.String("power-mode", "general-delay", "sampled-cycle observation: general-delay (glitches included) | zero-delay (functional toggles, word-parallel)")
		variance    = flag.String("variance", "none", "variance reduction: none | antithetic | control-variate (implies -replications; fewer sampled cycles to the same confidence interval)")
		inputProb   = flag.Float64("p", 0.5, "primary-input signal probability")
		inputRho    = flag.Float64("rho", 0, "primary-input lag-1 autocorrelation (0 = i.i.d.)")
		seed        = flag.Int64("seed", 1, "random seed")
		fixed       = flag.Int("interval", -1, "fixed independence interval (skip selection; -1 = dynamic)")
		reps        = flag.Int("replications", 0, "parallel replications (lane-parallel, up to 512 per compiled session; 0 = serial estimator)")
		workers     = flag.Int("workers", 0, "goroutine pool for -replications (0 = GOMAXPROCS)")
		sessWorkers = flag.Int("session-workers", 0, "level-parallel workers inside each compiled session (0 = serial; result-invariant)")
		cacheBudget = flag.Int("cache-budget", 0, "compiled-session cache-blocking budget in bytes (0 = default ~L2/2, <0 = disable blocking; result-invariant)")
		breakdown   = flag.Bool("breakdown", false, "report ranked per-node dynamic+leakage power (implies -replications; the dynamic column sums to the estimate in plain mode)")
		brkTop      = flag.Int("breakdown-top", 20, "rows to print with -breakdown (0 = all)")
		ztrace      = flag.Int("ztrace", -1, "print z statistic for trial intervals 0..N and exit")
		ztraceLen   = flag.Int("ztrace-len", 10000, "sequence length for -ztrace")
		refCycles   = flag.Int("ref", 0, "run an N-cycle consecutive reference instead of DIPE")
		verbose     = flag.Bool("v", false, "print interval-selection trials")
		topN        = flag.Int("top", 0, "report the N highest-power nodes (runs a counting reference)")
		maxBudget   = flag.Int("max", 0, "search for peak single-cycle power with an N-cycle budget")
		vcdPath     = flag.String("vcd", "", "dump sampled-cycle waveforms to a VCD file")
		vcdCycles   = flag.Int("vcd-cycles", 64, "number of cycles to dump with -vcd")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		progJSON    = flag.Bool("progress-json", false, "stream one JSON convergence record per merge round to stderr (requires -replications)")
	)
	flag.Parse()

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dipe:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dipe:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	err := run(*circuitName, *benchPath, *blifPath, *alpha, *seqLen, *relErr, *confidence,
		*criterion, *test, *powerMode, *variance, *inputProb, *inputRho, *seed, *fixed, *reps, *workers,
		*sessWorkers, *cacheBudget, *breakdown, *brkTop, *ztrace, *ztraceLen,
		*refCycles, *verbose, *topN, *maxBudget, *vcdPath, *vcdCycles, *progJSON)

	// os.Exit below skips defers, so the profiles are finalized inline
	// on both the success and the error path.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "dipe:", merr)
		} else {
			runtime.GC()
			if merr := pprof.WriteHeapProfile(f); merr != nil {
				fmt.Fprintln(os.Stderr, "dipe:", merr)
			}
			f.Close()
		}
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "dipe:", err)
		os.Exit(1)
	}
}

// progressRecord is the -progress-json line format: one object per
// merge round on stderr, stable lowerCamel keys for downstream tooling.
type progressRecord struct {
	Samples   int     `json:"samples"`
	Power     float64 `json:"power"`
	HalfWidth float64 `json:"halfWidth"`
	Interval  int     `json:"interval"`
	Rounds    int     `json:"rounds"`
	Elapsed   float64 `json:"elapsed"`
}

func run(circuitName, benchPath, blifPath string, alpha float64, seqLen int, relErr, confidence float64,
	criterion, test, powerMode, variance string, inputProb, inputRho float64, seed int64, fixed, reps, workers,
	sessWorkers, cacheBudget int, breakdown bool, brkTop, ztrace, ztraceLen int,
	refCycles int, verbose bool, topN, maxBudget int, vcdPath string, vcdCycles int, progJSON bool) error {

	var (
		c   *dipe.Circuit
		err error
	)
	sources := 0
	for _, s := range []string{circuitName, benchPath, blifPath} {
		if s != "" {
			sources++
		}
	}
	switch {
	case sources > 1:
		return fmt.Errorf("use exactly one of -circuit, -bench, -blif")
	case circuitName != "":
		c, err = dipe.Benchmark(circuitName)
	case benchPath != "":
		c, err = dipe.LoadBench(benchPath)
	case blifPath != "":
		c, err = dipe.LoadBLIF(blifPath)
	default:
		return fmt.Errorf("need -circuit NAME, -bench FILE or -blif FILE (built-ins: s27 %v)", dipe.BenchmarkNames())
	}
	if err != nil {
		return err
	}
	st := c.ComputeStats()
	fmt.Println(st.String())

	opts := dipe.DefaultOptions()
	opts.Alpha = alpha
	opts.SeqLen = seqLen
	opts.Spec = dipe.Spec{RelErr: relErr, Confidence: confidence}
	switch criterion {
	case "normal":
		opts.NewCriterion = dipe.NormalCriterion
	case "ks":
		opts.NewCriterion = dipe.KSCriterion
	case "order-statistics", "os":
		opts.NewCriterion = dipe.OrderStatisticsCriterion
	default:
		return fmt.Errorf("unknown criterion %q", criterion)
	}
	switch test {
	case "runs":
		opts.Test = dipe.OrdinaryRunsTest
	case "updown":
		opts.Test = dipe.UpDownRunsTest
	case "vonneumann":
		opts.Test = dipe.VonNeumannTest
	default:
		return fmt.Errorf("unknown randomness test %q", test)
	}
	mode, err := dipe.ParsePowerMode(powerMode)
	if err != nil {
		return err
	}
	opts.Mode = mode
	vrMode, err := dipe.ParseVarianceMode(variance)
	if err != nil {
		return err
	}
	opts.Variance.Mode = vrMode
	opts.SessionWorkers = sessWorkers
	opts.CacheBudget = cacheBudget
	if vrMode != dipe.VarianceNone && reps == 0 {
		// The transforms are defined over the replication space; default
		// to one full word of lanes like the parallel estimator does.
		reps = 64
	}
	opts.Breakdown = breakdown
	if breakdown && reps == 0 {
		// Attribution needs the parallel estimator (it holds the power
		// model); default to one full word of lanes.
		reps = 64
	}

	newFactory := func() dipe.SourceFactory {
		if inputRho > 0 {
			return dipe.NewLagCorrelatedSourceFactory(len(c.Inputs), inputProb, inputRho)
		}
		return dipe.NewIIDSourceFactory(len(c.Inputs), inputProb)
	}
	newSource := func() dipe.Source { return newFactory()(seed) }
	tb := dipe.NewTestbench(c)
	// Estimation and reference sessions observe under the selected mode;
	// the VCD, top-consumers and peak-power paths stay event-driven (they
	// need timed waveforms / glitch accounting by definition).
	newSession := func() *dipe.Session { return tb.NewSessionMode(newSource(), mode) }

	if refCycles > 0 {
		ref := dipe.RunReference(newSession(), 256, refCycles)
		fmt.Printf("reference: %s over %d cycles (rel. std. err. %.3f%%) in %s\n",
			dipe.FormatWatts(ref.Power), ref.Cycles, 100*ref.RelStdErr(), ref.Elapsed)
		return nil
	}

	if vcdPath != "" {
		if err := dumpVCD(tb, newSource(), vcdPath, vcdCycles); err != nil {
			return err
		}
		fmt.Printf("wrote %d cycles of waveforms to %s\n", vcdCycles, vcdPath)
		return nil
	}

	if topN > 0 {
		reportTopConsumers(c, tb, newSource(), topN)
		return nil
	}

	if maxBudget > 0 {
		mOpts := dipe.DefaultMaxPowerOptions()
		mOpts.Budget = maxBudget
		mOpts.Seed = seed
		hc, err := dipe.MaxPower(tb, mOpts)
		if err != nil {
			return err
		}
		rs, err := dipe.MaxPowerRandom(tb, mOpts)
		if err != nil {
			return err
		}
		fmt.Printf("peak power (hill climb)    : %s in %d cycles\n", dipe.FormatWatts(hc.Power), hc.Cycles)
		fmt.Printf("peak power (random search) : %s in %d cycles\n", dipe.FormatWatts(rs.Power), rs.Cycles)
		return nil
	}

	if ztrace >= 0 {
		pts, err := dipe.ZTrace(newSession(), opts, ztrace, ztraceLen)
		if err != nil {
			return err
		}
		fmt.Println("interval  z        |z|      accepted")
		for _, p := range pts {
			fmt.Printf("%7d  %+7.3f  %7.3f  %v\n", p.Interval, p.Z, p.AbsZ, p.Accepted)
		}
		return nil
	}

	opts.Replications = reps
	opts.Workers = workers
	if progJSON {
		if reps == 0 {
			return fmt.Errorf("-progress-json needs the parallel estimator (set -replications)")
		}
		enc := json.NewEncoder(os.Stderr)
		opts.Progress = func(p dipe.Progress) {
			enc.Encode(progressRecord{
				Samples: p.Samples, Power: p.Power, HalfWidth: p.HalfWidth,
				Interval: p.Interval, Rounds: p.Rounds, Elapsed: p.Elapsed,
			})
		}
	}

	var res dipe.Result
	switch {
	case reps > 0 && fixed >= 0:
		res, err = dipe.EstimateParallelWithInterval(tb, newFactory(), seed, opts, fixed)
	case reps > 0:
		res, err = dipe.EstimateParallel(tb, newFactory(), seed, opts)
	case fixed >= 0:
		res, err = dipe.EstimateWithInterval(newSession(), opts, fixed)
	default:
		res, err = dipe.Estimate(newSession(), opts)
	}
	if err != nil {
		return err
	}
	if reps > 0 {
		fmt.Printf("replications      : %d (%d workers)\n", reps, opts.WorkerCount(reps))
	}
	if verbose {
		// Post-hoc audit: a fresh sequence at the selected interval run
		// through the full randomness battery.
		diag, derr := dipe.Diagnose(newSession(), res.Interval, seqLen)
		if derr == nil {
			fmt.Printf("  sample audit at interval %d (CV %.2f):\n", diag.Interval, diag.CV)
			for _, tr := range diag.Tests {
				fmt.Printf("    %s\n", tr.String())
			}
			fmt.Printf("    acf[1..3] = %.3f %.3f %.3f\n", diag.ACF[1], diag.ACF[2], diag.ACF[3])
		}
	}
	if verbose {
		for _, tr := range res.Trials {
			status := "reject"
			if tr.Accepted {
				status = "accept"
			}
			fmt.Printf("  trial k=%d: z=%+.3f p=%.4f -> %s\n", tr.Interval, tr.Z, tr.PValue, status)
		}
	}
	fmt.Printf("average power     : %s\n", dipe.FormatWatts(res.Power))
	fmt.Printf("independence intvl: %d cycles", res.Interval)
	if res.IntervalCapped {
		fmt.Printf(" (capped)")
	}
	fmt.Println()
	fmt.Printf("sample size       : %d\n", res.SampleSize)
	fmt.Printf("criterion         : %s (half-width %.2f%%)\n", res.Criterion, 100*res.RelHalfWidth())
	fmt.Printf("power mode        : %s (engine %s, delay model %s)\n", mode, res.Engine, res.DelayModel)
	if res.Variance != "" {
		fmt.Printf("variance reduction: %s", res.Variance)
		if res.CVBeta != 0 {
			fmt.Printf(" (beta %.4f)", res.CVBeta)
		}
		fmt.Println()
	}
	fmt.Printf("simulated cycles  : %d hidden + %d sampled\n", res.HiddenCycles, res.SampledCycles)
	fmt.Printf("wall time         : %s\n", res.Elapsed)
	if !res.Converged {
		fmt.Println("WARNING: sample cap reached before convergence")
	}
	if res.Breakdown != nil {
		printBreakdown(res.Breakdown, brkTop)
	}
	return nil
}

// printBreakdown renders the ranked per-node attribution. The dynamic
// column sums (over every node, including the unranked inputs) to the
// scalar estimate in plain estimation mode.
func printBreakdown(rep *dipe.BreakdownReport, top int) {
	fmt.Printf("power breakdown   : dynamic %s + leakage %s over %d observations\n",
		dipe.FormatWatts(rep.Dynamic), dipe.FormatWatts(rep.Leakage), rep.Observations)
	rows := rep.TopRows(top)
	fmt.Printf("%-4s %-16s %-6s %12s %14s %14s %8s\n",
		"#", "node", "class", "toggles", "dynamic", "leakage", "share")
	for i, r := range rows {
		fmt.Printf("%-4d %-16s %-6s %12d %14s %14s %7.2f%%\n",
			i+1, r.Name, r.Class, r.Toggles,
			dipe.FormatWatts(r.Dynamic), dipe.FormatWatts(r.Leakage), 100*r.Share)
	}
	if n := len(rep.Rows) - len(rows); n > 0 {
		fmt.Printf("     ... %d more nodes\n", n)
	}
	if len(rep.Modules) > 0 {
		fmt.Printf("%-21s %-6s %12s %14s %14s %8s\n",
			"module", "nodes", "toggles", "dynamic", "leakage", "share")
		for _, m := range rep.Modules {
			fmt.Printf("%-21s %-6d %12d %14s %14s %7.2f%%\n",
				m.Module, m.Nodes, m.Toggles,
				dipe.FormatWatts(m.Dynamic), dipe.FormatWatts(m.Leakage), 100*m.Share)
		}
	}
}
