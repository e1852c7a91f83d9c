// Command dipe-experiments regenerates every table and figure of the
// paper's evaluation section, plus the ablations documented in
// DESIGN.md.
//
//	dipe-experiments -table1                       # Table 1 (all circuits)
//	dipe-experiments -table2 -runs 1000            # Table 2 at paper scale
//	dipe-experiments -fig3                         # Figure 3 (s1494, L=10000)
//	dipe-experiments -ablation stopping            # criterion comparison
//	dipe-experiments -modes                        # general- vs zero-delay power modes
//	dipe-experiments -engine -engine-json BENCH_1.json     # compiled lane engine vs scalar
//	dipe-experiments -large -large-json BENCH_7.json       # cache blocking at s38417+ scale
//	dipe-experiments -table1 -circuits s27,s298    # subset
//	dipe-experiments -all -small                   # everything, small circuits
//
// By default reference budgets scale with circuit size; -paper restores
// the 1e6-cycle references of the paper (slow on the largest circuits).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench89"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dipe-experiments:", err)
		os.Exit(2)
	}
}

// run is the testable body of the command: it parses args, runs the
// selected campaigns, and writes reports to stdout (progress to
// stderr).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dipe-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1   = fs.Bool("table1", false, "regenerate Table 1")
		table2   = fs.Bool("table2", false, "regenerate Table 2")
		fig3     = fs.Bool("fig3", false, "regenerate Figure 3")
		ablation = fs.String("ablation", "", "run one ablation: seqlen | alpha | stopping | warmup | inputs")
		all      = fs.Bool("all", false, "run every table, figure and ablation")
		circuits = fs.String("circuits", "", "comma-separated circuit subset (default: all 24)")
		small    = fs.Bool("small", false, "restrict to circuits with < 700 gates")
		runs     = fs.Int("runs", 100, "runs per circuit for Table 2 / ablations (paper: 1000)")
		parallel = fs.Int("parallel", 0, "concurrent estimation runs in Table 2 (0 = serial)")
		reps     = fs.Int("replications", 0, "Table 1: bit-parallel replications (0 = serial estimator)")
		workers  = fs.Int("workers", 0, "goroutine pool for -replications (0 = GOMAXPROCS)")
		engine   = fs.Bool("engine", false, "run the compiled-vs-scalar throughput benchmark (hidden, sampled and duty cycles)")
		engSw    = fs.Int("engine-sweeps", 8, "timed duty-cycle sweeps per circuit for -engine")
		engLn    = fs.Int("engine-lanes", 512, "compiled session width for -engine")
		engJ     = fs.String("engine-json", "", "write the -engine report as JSON to this file (BENCH_1.json)")
		largeB   = fs.Bool("large", false, "run the large-circuit cache-blocking benchmark (unblocked vs blocked vs level-parallel)")
		largeSw  = fs.Int("large-sweeps", 3, "timed duty-cycle sweeps per configuration for -large")
		largeGt  = fs.Int("large-gates", 100_000, "synthetic scaled-circuit gate count for -large (0 = named circuits only)")
		largeWk  = fs.String("large-workers", "2", "comma-separated level-parallel worker counts for -large (empty = none)")
		largeLn  = fs.Int("large-lanes", 512, "compiled session width for -large")
		largeJ   = fs.String("large-json", "", "write the -large report as JSON to this file (BENCH_7.json)")
		clusterB = fs.Bool("cluster", false, "run the distributed scaling benchmark (coordinator + in-process workers)")
		clusterW = fs.String("cluster-workers", "1,2", "comma-separated worker counts for -cluster")
		clusterN = fs.Int("cluster-samples", 8192, "sample budget per -cluster run")
		clusterP = fs.Int("cluster-pace", 10000, "per-worker pacing in samples/s for -cluster (0 = raw CPU-bound)")
		clusterJ = fs.String("cluster-json", "", "write the -cluster report as JSON to this file (BENCH_3.json)")
		hetB     = fs.Bool("het", false, "run the heterogeneous-fleet work-stealing benchmark (fast+slow+flaky workers)")
		hetJ     = fs.String("het-json", "", "write the -het report as JSON to this file (BENCH_5.json)")
		modes    = fs.Bool("modes", false, "run the Table-1-style general-delay vs zero-delay mode comparison")
		vrB      = fs.Bool("vr", false, "run the variance-reduction benchmark (plain vs antithetic vs control-variate)")
		vrRelErr = fs.Float64("vr-relerr", 0.05, "accuracy target for -vr")
		vrJ      = fs.String("vr-json", "", "write the -vr report as JSON to this file (BENCH_4.json)")
		paper    = fs.Bool("paper", false, "use the paper's 1e6-cycle references")
		seed     = fs.Int64("seed", 1997, "base seed for the whole campaign")
		fig3Len  = fs.Int("fig3-len", 10000, "Figure 3 sequence length")
		fig3Max  = fs.Int("fig3-max", 30, "Figure 3 maximum trial interval")
		fig3Circ = fs.String("fig3-circuit", "s1494", "Figure 3 circuit")
		csv      = fs.Bool("csv", false, "emit Figure 3 as CSV instead of ASCII")
		quiet    = fs.Bool("q", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	cfg.Runs = *runs
	cfg.Parallel = *parallel
	cfg.Replications = *reps
	cfg.Workers = *workers
	cfg.BaseSeed = *seed
	if !*quiet {
		cfg.Log = stderr
	}
	if *paper {
		cfg.RefCycles = experiments.PaperRefCycles
	}
	switch {
	case *circuits != "":
		cfg.Circuits = strings.Split(*circuits, ",")
	case *small:
		cfg.Circuits = bench89.SmallNames(700)
	}

	if !*table1 && !*table2 && !*fig3 && *ablation == "" && !*all && !*engine && !*largeB && !*modes && !*clusterB && !*vrB && !*hetB {
		fs.Usage()
		return fmt.Errorf("no campaign selected")
	}

	if *vrB {
		vcfg := experiments.DefaultVRBenchConfig()
		vcfg.RelErr = *vrRelErr
		vcfg.Seed = cfg.BaseSeed
		if *circuits != "" || *small {
			vcfg.Circuits = cfg.Circuits
		}
		if !*quiet {
			vcfg.Log = func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) }
		}
		rows, err := experiments.VarianceReduction(vcfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderVRBench(rows))
		if *vrJ != "" {
			if err := os.WriteFile(*vrJ, []byte(experiments.VRBenchJSON(rows, vcfg)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *vrJ)
		}
	}

	if *clusterB {
		ccfg := experiments.DefaultClusterScalingConfig()
		ccfg.Samples = *clusterN
		ccfg.PacedSamplesPerSec = *clusterP
		ccfg.Seed = cfg.BaseSeed
		if *circuits != "" || *small {
			ccfg.Circuits = cfg.Circuits
		}
		ccfg.WorkerCounts = ccfg.WorkerCounts[:0]
		for _, s := range strings.Split(*clusterW, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -cluster-workers entry %q", s)
			}
			ccfg.WorkerCounts = append(ccfg.WorkerCounts, n)
		}
		rows, err := experiments.ClusterScaling(ccfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderClusterBench(rows))
		if *clusterJ != "" {
			if err := os.WriteFile(*clusterJ, []byte(experiments.ClusterBenchJSON(rows, ccfg.PacedSamplesPerSec)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *clusterJ)
		}
	}

	if *hetB {
		hcfg := experiments.DefaultHeterogeneousConfig()
		hcfg.Seed = cfg.BaseSeed
		rows, err := experiments.HeterogeneousScaling(hcfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderHeterogeneous(rows))
		if *hetJ != "" {
			if err := os.WriteFile(*hetJ, []byte(experiments.HeterogeneousJSON(rows, hcfg)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *hetJ)
		}
	}

	if *engine {
		set := cfg.Circuits
		if *circuits == "" && !*small {
			// Default to the regression trio unless the user chose a set.
			set = []string{"s298", "s832", "s1494"}
		}
		// Warmup 512 + one 32-sample stopping round at interval 8 is the
		// estimator's per-replication cycle mix (DefaultOptions
		// WarmupCycles and CheckEvery, a mid-range stationarity interval).
		rows, err := experiments.EngineThroughput(set, 512, 32, 8, *engSw, *engLn, cfg.BaseSeed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderEngineBench(rows))
		if *engJ != "" {
			if err := os.WriteFile(*engJ, []byte(experiments.EngineBenchJSON(rows)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *engJ)
		}
	}

	if *largeB {
		lcfg := experiments.DefaultLargeBenchConfig()
		lcfg.Sweeps = *largeSw
		lcfg.ScaledGates = *largeGt
		lcfg.Lanes = *largeLn
		lcfg.Seed = cfg.BaseSeed
		if *circuits != "" {
			lcfg.Circuits = cfg.Circuits
		}
		lcfg.WorkerCounts = lcfg.WorkerCounts[:0]
		if s := strings.TrimSpace(*largeWk); s != "" {
			for _, e := range strings.Split(s, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(e))
				if err != nil || n < 1 {
					return fmt.Errorf("bad -large-workers entry %q", e)
				}
				lcfg.WorkerCounts = append(lcfg.WorkerCounts, n)
			}
		}
		if !*quiet {
			lcfg.Log = func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) }
		}
		rows, err := experiments.LargeBench(lcfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderLargeBench(rows))
		if *largeJ != "" {
			if err := os.WriteFile(*largeJ, []byte(experiments.LargeBenchJSON(rows)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *largeJ)
		}
	}

	if *modes || *all {
		mcfg := cfg
		if *circuits == "" && !*small {
			mcfg.Circuits = []string{"s298", "s832", "s1494"}
		}
		rows, err := experiments.ModeComparison(mcfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderModes(rows))
	}

	if *table1 || *all {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderTable1(rows))
	}
	if *table2 || *all {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderTable2(rows))
	}
	if *fig3 || *all {
		pts, err := experiments.Figure3(cfg, *fig3Circ, *fig3Len, *fig3Max)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(stdout, experiments.Figure3CSV(pts))
		} else {
			c := stats.NormalQuantile(1 - cfg.Opts.Alpha/2)
			fmt.Fprintln(stdout, experiments.RenderFigure3(pts, c))
		}
	}

	runAblation := func(which string) error {
		// Ablations run on one representative circuit each; s298 is small
		// and strongly correlated, s27 is the fast smoke case.
		switch which {
		case "seqlen":
			rows, err := experiments.AblationSeqLen(cfg, "s298", []int{80, 160, 320, 640, 1280})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderSeqLen(rows))
		case "alpha":
			rows, err := experiments.AblationAlpha(cfg, "s298", []float64{0.05, 0.10, 0.20, 0.30, 0.50})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderAlpha(rows))
		case "stopping":
			rows, err := experiments.AblationStopping(cfg, "s298")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderStopping(rows))
		case "warmup":
			rows, err := experiments.AblationWarmup(cfg, "s298", []int{10, 50, 100})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderWarmup(rows))
		case "inputs":
			rows, err := experiments.AblationInputs(cfg, "s298", []float64{0, 0.5, 0.9})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderInputs(rows))
		case "delay":
			dcfg := cfg
			if len(dcfg.Circuits) > 8 {
				dcfg.Circuits = dcfg.Circuits[:8]
			}
			rows, err := experiments.AblationDelayModels(dcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderDelayModels(rows))
		case "calibration":
			rows := experiments.CalibrationRunsTest(cfg, cfg.Opts.Test, cfg.Opts.SeqLen, 2000,
				[]float64{0.05, 0.10, 0.20, 0.30, 0.50})
			fmt.Fprintln(stdout, experiments.RenderCalibration(rows))
		case "proba":
			pcfg := cfg
			if len(pcfg.Circuits) > 12 {
				pcfg.Circuits = pcfg.Circuits[:12]
			}
			rows, err := experiments.ProbabilisticBaseline(pcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderProba(rows))
		default:
			return fmt.Errorf("unknown ablation %q (seqlen|alpha|stopping|warmup|inputs|delay|calibration|proba)", which)
		}
		return nil
	}
	if *ablation != "" {
		if err := runAblation(*ablation); err != nil {
			return err
		}
	}
	if *all {
		for _, a := range []string{"seqlen", "alpha", "stopping", "warmup", "inputs", "delay", "calibration", "proba"} {
			if err := runAblation(a); err != nil {
				return err
			}
		}
	}
	return nil
}
