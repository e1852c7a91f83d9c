// Command e2ebench measures the wall time a DIPE user waits for an
// average-power answer at the paper's accuracy target (5% relative
// error, 0.99 confidence), end to end, and splits it by layer.
//
// Usage (from the repository root; run.sh builds this program first):
//
//	bash e2ebench/run.sh --workload cli-s1494 --seed 1 --seconds 20 --trace 0
//
// One run sets the workload up several times (setup_s is the median),
// drives a closed loop of estimation jobs through the public entry
// points for --seconds, checks every result against a stored long-run
// reference and the bit-identity invariants, and prints one JSON object
// as the last line of standard output. With --trace 1 it repeats the
// same jobs with per-layer tracing and prints the per-layer metrics
// instead. See README.md for the workload table and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload workload
	seed     int64
	window   time.Duration
	trace    bool
	// root is the checkout the benchmark runs in; state directories and
	// span dumps go under root/.bench_build.
	root string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs one workload and prints the report.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload name (see README.md)")
		seed      = fs.Int64("seed", 1, "workload seed; per-job seeds, the job mix and upload names derive from it")
		seconds   = fs.Float64("seconds", 20, "length of the timed window in seconds")
		trace     = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root      = fs.String("root", ".", "checkout root (scratch files go under ROOT/.bench_build)")
		regenRefs = fs.Bool("regen-refs", false, "recompute the long-run references into e2ebench/refs.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *regenRefs {
		if err := regenerateReferences(filepath.Join(*root, "e2ebench", "refs.json"), stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
	}
	rep, info, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for _, msg := range info.Problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", msg)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}
