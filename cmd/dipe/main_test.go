package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runDefaults wraps run() with the flag defaults so each test overrides
// only what it cares about.
type runArgs struct {
	circuit, bench, blif string
	alpha                float64
	seqLen               int
	relErr, confidence   float64
	criterion, test      string
	powerMode            string
	variance             string
	inputProb, inputRho  float64
	seed                 int64
	fixed, reps, workers int
	sessWorkers          int
	cacheBudget          int
	breakdown            bool
	brkTop               int
	ztrace, ztraceLen    int
	refCycles            int
	verbose              bool
	topN, maxBudget      int
	vcdPath              string
	vcdCycles            int
	progJSON             bool
}

func defaults() runArgs {
	return runArgs{
		alpha: 0.20, seqLen: 320, relErr: 0.05, confidence: 0.99,
		criterion: "order-statistics", test: "runs", powerMode: "general-delay", variance: "none",
		inputProb: 0.5, seed: 1, fixed: -1, brkTop: 20, ztrace: -1, ztraceLen: 1000,
		vcdCycles: 8,
	}
}

func (a runArgs) run() error {
	return run(a.circuit, a.bench, a.blif, a.alpha, a.seqLen, a.relErr, a.confidence,
		a.criterion, a.test, a.powerMode, a.variance, a.inputProb, a.inputRho, a.seed, a.fixed, a.reps, a.workers,
		a.sessWorkers, a.cacheBudget, a.breakdown, a.brkTop, a.ztrace, a.ztraceLen, a.refCycles, a.verbose, a.topN, a.maxBudget, a.vcdPath, a.vcdCycles, a.progJSON)
}

func TestRunEstimate(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.verbose = true
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBreakdown(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.breakdown = true // reps left 0: -breakdown implies 64 replications
	a.brkTop = 5
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllCriteriaAndTests(t *testing.T) {
	for _, crit := range []string{"normal", "ks", "order-statistics", "os"} {
		a := defaults()
		a.circuit = "s27"
		a.criterion = crit
		a.relErr = 0.10 // keep ks fast
		if err := a.run(); err != nil {
			t.Errorf("criterion %s: %v", crit, err)
		}
	}
	for _, test := range []string{"runs", "updown", "vonneumann"} {
		a := defaults()
		a.circuit = "s27"
		a.test = test
		a.relErr = 0.10
		if err := a.run(); err != nil {
			t.Errorf("test %s: %v", test, err)
		}
	}
}

func TestRunReferenceMode(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.refCycles = 2000
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunZTraceMode(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.ztrace = 3
	a.ztraceLen = 200
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunFixedInterval(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.fixed = 2
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelReplications(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.reps = 16
	a.workers = 2
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	// Fixed interval + replications takes the parallel fixed path.
	a.fixed = 2
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTopConsumers(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.topN = 3
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunMaxPower(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.maxBudget = 300
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunVCD(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.vcdPath = filepath.Join(t.TempDir(), "wave.vcd")
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(a.vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions") {
		t.Fatal("VCD file missing declarations")
	}
}

func TestRunBenchAndBLIFFiles(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "t.bench")
	if err := os.WriteFile(benchPath, []byte("INPUT(A)\nOUTPUT(Y)\nQ = DFF(Y)\nY = XOR(A, Q)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := defaults()
	a.bench = benchPath
	a.relErr = 0.10
	if err := a.run(); err != nil {
		t.Fatal(err)
	}

	blifPath := filepath.Join(dir, "t.blif")
	blif := ".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q d\n10 1\n01 1\n.end\n"
	if err := os.WriteFile(blifPath, []byte(blif), 0o644); err != nil {
		t.Fatal(err)
	}
	b := defaults()
	b.blif = blifPath
	b.relErr = 0.10
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorrelatedInputs(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.inputRho = 0.5
	a.relErr = 0.10
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []func(*runArgs){
		func(a *runArgs) {}, // no circuit at all
		func(a *runArgs) { a.circuit = "s27"; a.bench = "x.bench" },
		func(a *runArgs) { a.circuit = "sNOPE" },
		func(a *runArgs) { a.circuit = "s27"; a.criterion = "bogus" },
		func(a *runArgs) { a.circuit = "s27"; a.test = "bogus" },
		func(a *runArgs) { a.bench = "/nonexistent.bench" },
		func(a *runArgs) { a.blif = "/nonexistent.blif" },
	}
	for i, mutate := range cases {
		a := defaults()
		mutate(&a)
		if err := a.run(); err == nil {
			t.Errorf("case %d: run succeeded, want error", i)
		}
	}
}

func TestRunCompiledBackend(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	// Replications take the compiled lane sessions, general-delay
	// (word-level waveform observation) and zero-delay (row diffs).
	a.reps = 8
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	a.powerMode = "zero-delay"
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnfittableReplications: a replication count whose first
// round cannot fit the sample budget is an error (a non-zero exit), not
// an instant unconverged "sample cap reached" run.
func TestRunRejectsUnfittableReplications(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.reps = 200_000_000
	err := a.run()
	if err == nil || !strings.Contains(err.Error(), "Replications") {
		t.Fatalf("run = %v, want a Replications budget error", err)
	}
}

func TestRunSessionTuning(t *testing.T) {
	// The blocking budget and level-parallel worker knobs are
	// result-invariant; the run just has to succeed end to end.
	a := defaults()
	a.circuit = "s27"
	a.powerMode = "zero-delay"
	a.reps = 8
	a.cacheBudget = 4 << 10
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	a.cacheBudget = 0
	a.sessWorkers = 2
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunZeroDelayMode(t *testing.T) {
	a := defaults()
	a.circuit = "s27"
	a.powerMode = "zero" // alias of "zero-delay"
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	a.reps = 8
	if err := a.run(); err != nil {
		t.Fatal(err)
	}
	a.powerMode = "bogus"
	if err := a.run(); err == nil {
		t.Fatal("bogus power mode accepted")
	}
}
