package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/power"
)

// Paper defaults every workload shares: 5%/0.99 with the
// order-statistics criterion (core.DefaultOptions) and i.i.d. p = 0.5
// inputs, at 512 replications per job.
const (
	replications = 512
	// setupReps is how many times a run sets its workload up; setup_s
	// is the median, which a stall of the shared machine during one or
	// two set-ups does not move.
	setupReps = 9
	// digestJobs is the job prefix result_digest covers, so two runs of
	// the same seed compare exactly however many jobs each window held.
	digestJobs = 8
)

// workload is one benchmark input set.
type workload struct {
	Name    string
	Circuit string
	Mode    power.PowerMode
	// Fixed >= 0 pins the independence interval (selection is skipped).
	Fixed int
	// Service routes jobs through the HTTP API of an in-process service
	// over a 2-worker loopback cluster instead of calling core directly.
	Service bool
}

var workloads = []workload{
	{Name: "cli-s1494", Circuit: "s1494", Fixed: -1},
	{Name: "cli-s38417", Circuit: "s38417", Fixed: -1},
	{Name: "cli-s1494-zd-fixed", Circuit: "s1494", Mode: power.ModeZeroDelay, Fixed: 1},
	{Name: "service-cluster-s1494", Circuit: "s1494", Fixed: -1, Service: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// Job kinds. The in-process workloads only send kindDefault; the
// service workload mixes all four.
const (
	kindDefault = "default"
	kindCV      = "control-variate"
	kindRepeat  = "repeat"
	kindUpload  = "upload"
)

// job is one generated request.
type job struct {
	Index int
	Kind  string
	// Circuit is the registry name the request targets (the upload name
	// for kindUpload and repeats of uploads).
	Circuit  string
	Seed     int64
	Variance string
	// Of is the index of the repeated job (kindRepeat), else -1.
	Of int
}

// mix splits 64-bit draws into a job stream. splitmix64 keeps
// neighbouring workload seeds uncorrelated.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jobSeed derives an estimator base seed; 40 bits leave room for the
// +1+r replication offsets.
func jobSeed(seed int64, stream, i uint64) int64 {
	return int64(mix(seed, stream, i)>>24) + 1
}

const (
	streamJob = iota + 1
	streamKind
	streamRepeat
)

// serviceMix is one block of the service job mix; every block of
// len(serviceMix) consecutive jobs holds exactly these kinds in a
// seed-shuffled order, so the mix does not drift between seeds. Repeats
// are a fifth of the jobs, well under half.
var serviceMix = []string{
	kindDefault, kindDefault, kindDefault, kindDefault,
	kindCV, kindCV, kindRepeat, kindRepeat, kindUpload, kindUpload,
}

// generator produces a workload's job sequence from its seed alone.
type generator struct {
	w     workload
	seed  int64
	jobs  []job
	fresh []int    // indices of jobs that ran (repeat candidates)
	order []string // the current block of serviceMix, shuffled
}

// kind returns the service job kind of job i.
func (g *generator) kind(i int) string {
	n := len(serviceMix)
	if i%n == 0 {
		g.order = append(g.order[:0], serviceMix...)
		for k := n - 1; k > 0; k-- {
			r := int(mix(g.seed, streamKind, uint64(i+k)) % uint64(k+1))
			g.order[k], g.order[r] = g.order[r], g.order[k]
		}
		if i == 0 && g.order[0] == kindRepeat {
			// The first job has nothing to repeat yet.
			for k, kd := range g.order {
				if kd != kindRepeat {
					g.order[0], g.order[k] = kd, kindRepeat
					break
				}
			}
		}
	}
	return g.order[i%n]
}

func (g *generator) next() job {
	i := len(g.jobs)
	j := job{Index: i, Kind: kindDefault, Circuit: g.w.Circuit, Seed: jobSeed(g.seed, streamJob, uint64(i)), Of: -1}
	if g.w.Service {
		switch g.kind(i) {
		case kindCV:
			j.Kind, j.Variance = kindCV, "control-variate"
		case kindRepeat:
			of := g.jobs[g.fresh[mix(g.seed, streamRepeat, uint64(i))%uint64(len(g.fresh))]]
			j = of
			j.Index, j.Kind, j.Of = i, kindRepeat, of.Index
		case kindUpload:
			j.Kind = kindUpload
			j.Circuit = fmt.Sprintf("%s-up-%d-%d", g.w.Circuit, g.seed, i)
		}
	}
	if j.Kind != kindRepeat {
		g.fresh = append(g.fresh, i)
	}
	g.jobs = append(g.jobs, j)
	return j
}

// warmupSeed is the seed of every set-up's untimed warm-up job. It is
// the same for every workload seed, so setup_s does not vary with the
// cost of a seed-dependent warm-up job.
const warmupSeed = 1 << 40

// outcome is one finished job as the client saw it.
type outcome struct {
	Job        job
	Seconds    float64
	Power      float64
	HalfWidth  float64
	SampleSize int
	Interval   int
	Hidden     uint64
	Sampled    uint64
	Converged  bool
	Cached     bool
	Err        error
}

// sameResult reports the first difference between two results of the
// same job; nil means bit-identical.
func sameResult(a, b outcome) error {
	switch {
	case math.Float64bits(a.Power) != math.Float64bits(b.Power):
		return fmt.Errorf("power %v != %v", a.Power, b.Power)
	case math.Float64bits(a.HalfWidth) != math.Float64bits(b.HalfWidth):
		return fmt.Errorf("half-width %v != %v", a.HalfWidth, b.HalfWidth)
	case a.SampleSize != b.SampleSize:
		return fmt.Errorf("sample size %d != %d", a.SampleSize, b.SampleSize)
	case a.Interval != b.Interval:
		return fmt.Errorf("interval %d != %d", a.Interval, b.Interval)
	case a.Hidden != b.Hidden || a.Sampled != b.Sampled:
		return fmt.Errorf("cycles %d/%d != %d/%d", a.Hidden, a.Sampled, b.Hidden, b.Sampled)
	case a.Converged != b.Converged:
		return fmt.Errorf("converged %v != %v", a.Converged, b.Converged)
	}
	return nil
}

// info is the line printed before the report: environment, exact work
// counts, the tail percentile and every check that failed.
type info struct {
	Workload        string         `json:"workload"`
	Seed            int64          `json:"seed"`
	Trace           bool           `json:"trace"`
	NProc           int            `json:"nproc"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	GoVersion       string         `json:"go_version"`
	Gates           int            `json:"gates"`
	Latches         int            `json:"latches"`
	Jobs            int            `json:"jobs"`
	FailedFrac      float64        `json:"failed_frac"`
	TailPercentile  float64        `json:"time_to_target_s_tail_percentile"`
	TailJobsBeyond  int            `json:"time_to_target_s_tail_jobs_beyond"`
	HiddenCycles    uint64         `json:"hidden_cycles"`
	SampledCycles   uint64         `json:"sampled_cycles"`
	Samples         uint64         `json:"samples"`
	Intervals       map[string]int `json:"intervals"`
	Kinds           map[string]int `json:"kinds"`
	ResultDigest    string         `json:"result_digest"`
	DigestJobs      int            `json:"result_digest_jobs"`
	SelfTest        string         `json:"negative_self_test"`
	Problems        []string       `json:"problems,omitempty"`
	SpanFile        string         `json:"span_file,omitempty"`
	droppedProblems int
}

// problem records a failed check (the first few verbatim).
func (in *info) problem(format string, args ...any) {
	if len(in.Problems) < 20 {
		in.Problems = append(in.Problems, fmt.Sprintf(format, args...))
		return
	}
	in.droppedProblems++
}

// workCounts fills the exact simulated-work counts and the digest.
func (in *info) workCounts(outs []outcome) {
	in.Intervals = map[string]int{}
	in.Kinds = map[string]int{}
	h := sha256.New()
	var buf [8 * 3]byte
	for i, o := range outs {
		in.Kinds[o.Job.Kind]++
		if o.Cached {
			continue // a cache hit simulates nothing
		}
		in.HiddenCycles += o.Hidden
		in.SampledCycles += o.Sampled
		in.Samples += uint64(o.SampleSize)
		in.Intervals[strconv.Itoa(o.Interval)]++
		if i < digestJobs {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(o.Power))
			binary.LittleEndian.PutUint64(buf[8:], uint64(o.SampleSize))
			binary.LittleEndian.PutUint64(buf[16:], uint64(o.Interval))
			h.Write(buf[:])
			in.DigestJobs++
		}
	}
	in.ResultDigest = hex.EncodeToString(h.Sum(nil))[:16]
}

func newInfo(cfg config) *info {
	return &info{
		Workload:   cfg.workload.Name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least 10 jobs
// beyond it: the job time of rank n-11 (0-based) of n sorted times,
// which is percentile 100*(n-10)/n.
func tail(xs []float64) (value, percentile float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		// No percentile has 10 jobs beyond it: report the fastest job,
		// the percentile with the most jobs beyond it.
		return s[0], 100 / float64(n), n - 1
	}
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// timed is what a closed-loop window measured.
type timed struct {
	outs []outcome
	wall float64 // seconds from the first submit to the last result
	// rssMB is the peak resident set at the end of the window, before
	// any check runs.
	rssMB float64
}

// closedLoop sends one job at a time until the window has passed.
func closedLoop(window time.Duration, g *generator, send func(job) outcome) timed {
	var t timed
	start := time.Now()
	for time.Since(start) < window {
		t.outs = append(t.outs, send(g.next()))
	}
	t.wall = time.Since(start).Seconds()
	t.rssMB = peakRSSMB()
	return t
}

// e2eMetrics derives the end-to-end metrics of a window. A job counts
// toward throughput only if it converged and passed every check.
func e2eMetrics(t timed, failed []bool, setups []float64) map[string]metric {
	var times []float64
	ok := 0
	for i, o := range t.outs {
		times = append(times, o.Seconds)
		if !failed[i] {
			ok++
		}
	}
	tv, _, _ := tail(times)
	return map[string]metric{
		"setup_s":               {median(setups), "s"},
		"time_to_target_s_p50":  {median(times), "s"},
		"time_to_target_s_tail": {tv, "s"},
		"jobs_per_s":            {float64(ok) / t.wall, "1/s"},
		"peak_rss_mb":           {t.rssMB, "MB"},
	}
}

// runWorkload runs the workload in-process or through the service.
func runWorkload(cfg config) (report, *info, error) {
	in := newInfo(cfg)
	var (
		rep report
		err error
	)
	if cfg.workload.Service {
		rep, err = runService(cfg, in)
	} else {
		rep, err = runInProcess(cfg, in)
	}
	if in.droppedProblems > 0 {
		in.Problems = append(in.Problems, fmt.Sprintf("... and %d more", in.droppedProblems))
	}
	return rep, in, err
}

// finish assembles the report from the checked outcomes.
func finish(outs []outcome, failed []bool, selfTestErr error, in *info, metrics map[string]metric) report {
	nFailed := 0
	for _, f := range failed {
		if f {
			nFailed++
		}
	}
	in.Jobs = len(outs)
	if len(outs) > 0 {
		in.FailedFrac = float64(nFailed) / float64(len(outs))
	}
	var times []float64
	for _, o := range outs {
		times = append(times, o.Seconds)
	}
	_, in.TailPercentile, in.TailJobsBeyond = tail(times)
	in.workCounts(outs)
	in.SelfTest = "caught every perturbation"
	if selfTestErr != nil {
		in.SelfTest = selfTestErr.Error()
		in.problem("negative self-test: %v", selfTestErr)
	}
	return report{
		Correct:   len(outs) > 0 && nFailed == 0 && selfTestErr == nil && len(in.Problems) == 0,
		Attempted: len(outs),
		Failed:    nFailed,
		Metrics:   metrics,
	}
}
