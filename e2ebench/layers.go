package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// Per-layer measurement from outside the program: spans recorded here
// around calls into each layer's public functions, the program's own
// job traces and obs counters read back, and two wrappers (a vectors
// factory and an HTTP round tripper) on the seams the program exposes.

// spanLog keeps the benchmark's spans in memory; they are written out
// once, at the end of a traced run.
type spanLog struct {
	base  time.Time
	spans []loggedSpan
}

type loggedSpan struct {
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(job int, name, parent string, start, end time.Time) {
	l.spans = append(l.spans, loggedSpan{
		Job: job, Name: name, Parent: parent,
		Start: start.Sub(l.base).Seconds(), End: end.Sub(l.base).Seconds(),
	})
}

// write dumps the spans under root/.bench_build/spans and returns the
// file's path relative to root.
func (l *spanLog) write(root string, cfg config) (string, error) {
	rel := filepath.Join(".bench_build", "spans", cfg.workload.Name+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	return rel, os.WriteFile(path, b, 0o644)
}

// layerAcc sums per-job layer measurements; the report divides by the
// job counts.
type layerAcc struct {
	sum map[string]float64
	// ran counts jobs that executed (not cache hits); all counts every job.
	ran, all int
	// hitTimes are the client times of cache hits.
	hitTimes []float64
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: map[string]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// perRan is a sum divided by the executed job count.
func (a *layerAcc) perRan(name string) float64 { return ratio(a.sum[name], float64(a.ran)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countingFactory wraps a vectors.Factory to count the sources a job
// builds, the time spent building them, and the patterns drawn from
// each. Draws are too short to time one by one (a draw costs about as
// much as reading the clock twice), so totals replays every source's
// draws in isolation and times them in bulk. Sources are used from one
// goroutine each, so per-source counters need no synchronisation.
type countingFactory struct {
	inner   vectors.Factory
	mu      sync.Mutex
	sources []*countingSource
	build   time.Duration
}

type countingSource struct {
	vectors.Source
	seed  int64
	draws int
}

func (s *countingSource) Next(dst []bool) {
	s.draws++
	s.Source.Next(dst)
}

func (f *countingFactory) factory(seed int64) vectors.Source {
	t := time.Now()
	s := &countingSource{Source: f.inner(seed), seed: seed}
	d := time.Since(t)
	f.mu.Lock()
	f.sources = append(f.sources, s)
	f.build += d
	f.mu.Unlock()
	return s
}

// totals returns the draws, the seconds a bulk replay of the same draws
// from the same sources takes, and the source build seconds.
func (f *countingFactory) totals() (draws, drawS, buildS float64) {
	var elapsed time.Duration
	for _, s := range f.sources {
		src := f.inner(s.seed)
		buf := make([]bool, src.Width())
		t := time.Now()
		for i := 0; i < s.draws; i++ {
			src.Next(buf)
		}
		elapsed += time.Since(t)
		draws += float64(s.draws)
	}
	return draws, elapsed.Seconds(), f.build.Seconds()
}

// promValues scrapes a registry and sums every series per metric name
// (labels folded), so counter families read as one total.
func promValues(regs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, r := range regs {
		var buf bytes.Buffer
		r.WriteProm(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// delta returns after-before for one metric name.
func delta(before, after map[string]float64, name string) float64 { return after[name] - before[name] }

// Compiled-engine counters (sim.RegisterCompiledMetrics).
const (
	promExecs     = "dipe_compile_execs_total"
	promInsts     = "dipe_compile_instructions_total"
	promLaneSteps = "dipe_compile_lane_steps_total"
	promSpillRows = "dipe_compile_spill_rows_total"
)

// addCompileDelta books the compiled-engine counter deltas of one job.
func (a *layerAcc) addCompileDelta(before, after map[string]float64) {
	a.add("compile.execs", delta(before, after, promExecs))
	a.add("compile.instructions", delta(before, after, promInsts))
	a.add("compile.lane_steps", delta(before, after, promLaneSteps))
	a.add("compile.spill_rows", delta(before, after, promSpillRows))
}

// simSplit replays a finished job's sampling phase through
// core.StreamReplications twice: once as run (hidden stepping plus
// sampled observation) and once with every block skipped, which per its
// contract replays the same trajectory as hidden cycles only. The
// difference is the sampled-observation time. The first replay draws
// through a countingFactory, returned so a caller without its own view
// of the job's draws can book the stimulus layer from it.
func simSplit(a *layerAcc, reg *obs.Registry, tb *core.Testbench, src vectors.Factory, seed int64, opts core.Options, plan vr.Plan, interval, blocks int) (*countingFactory, error) {
	cf := &countingFactory{inner: src}
	if blocks == 0 {
		// Converged on the phase-1 samples alone: no sampling phase ran
		// (and StreamReplications reads maxBlocks 0 as unbounded).
		return cf, nil
	}
	m, err := core.NewMerger(opts)
	if err != nil {
		return nil, err
	}
	reps, rounds := m.Reps(), m.Rounds()
	emit := func(core.ReplicationBlock) error { return nil }
	ctx := context.Background()
	t0 := time.Now()
	if err := core.StreamReplications(ctx, tb, cf.factory, seed, opts, plan, interval, 0, reps, rounds, 0, blocks, 0, emit); err != nil {
		return nil, err
	}
	full := time.Since(t0).Seconds()
	before := promValues(reg)
	t1 := time.Now()
	if err := core.StreamReplications(ctx, tb, src, seed, opts, plan, interval, 0, reps, rounds, blocks, blocks, 0, emit); err != nil {
		return nil, err
	}
	hidden := time.Since(t1).Seconds()
	after := promValues(reg)
	a.add("sim.hidden_s", hidden)
	a.add("sim.sampled_observe_s", full-hidden)
	a.add("replay.hidden_lane_steps", delta(before, after, promLaneSteps))
	a.add("replay.hidden_insts", delta(before, after, promInsts))
	return cf, nil
}

// addVectors books the stimulus layer seen through a countingFactory.
func (a *layerAcc) addVectors(cf *countingFactory) {
	draws, drawS, buildS := cf.totals()
	a.add("vectors.draws", draws)
	a.add("vectors.draw_s", drawS)
	a.add("vectors.source_build_s", buildS)
}

// jobLayers is what one executed job contributes to the core layer.
type jobLayers struct {
	selectS, planS, tailS float64
	rounds                int
	// rp is the job's frozen pre-sampling point (for service jobs, the
	// in-process re-preparation of the same request).
	rp         core.ResumePoint
	planCycles uint64
}

// bookJob adds one executed job's core and sim cycle figures.
func (a *layerAcc) bookJob(o outcome, l jobLayers) {
	a.ran++
	a.add("core.select_s", l.selectS)
	a.add("core.plan_s", l.planS)
	a.add("core.tail_s", l.tailS)
	a.add("core.select_trials", float64(len(l.rp.Trials)))
	a.add("core.select_cycles", float64(l.rp.Hidden+l.rp.Sampled-l.planCycles))
	a.add("core.plan_cycles", float64(l.planCycles))
	a.add("core.merge_rounds", float64(l.rounds))
	a.add("core.samples", float64(o.SampleSize))
	a.add("core.sampled_cycles", float64(o.Sampled))
	a.add("sim.hidden_lane_cycles", float64(o.Hidden-l.rp.Hidden))
	a.add("sim.sampled_lane_cycles", float64(o.Sampled-l.rp.Sampled))
}

// perLayer lists every per-layer metric with its unit, in report
// order; README.md maps each to its layer and end-to-end metric.
var perLayer = []struct{ name, unit string }{
	{"core.select_s", "s"}, {"core.select_trials", "count"}, {"core.select_cycles", "count"},
	{"core.plan_s", "s"}, {"core.plan_cycles", "count"},
	{"core.tail_s", "s"}, {"core.round_s", "s"}, {"core.merge_rounds", "count"},
	{"core.samples", "count"}, {"core.sample_yield", "frac"},
	{"sim.hidden_s", "s"}, {"sim.sampled_observe_s", "s"}, {"sim.hidden_lane_cycles", "count"},
	{"sim.sampled_lane_cycles", "count"}, {"sim.hidden_lane_cycles_per_s", "1/s"},
	{"compile.build_s", "s"}, {"compile.execs", "count"}, {"compile.instructions", "count"},
	{"compile.lane_steps", "count"}, {"compile.spill_rows", "count"}, {"compile.instructions_per_s", "1/s"},
	{"vectors.draws", "count"}, {"vectors.draw_s", "s"}, {"vectors.source_build_s", "s"},
	{"cluster.stream_requests", "count"}, {"cluster.stream_bytes", "B"},
	{"cluster.stream_first_byte_s", "s"}, {"cluster.stream_s", "s"}, {"cluster.block_wait_s", "s"},
	{"cluster.lease_grants", "count"}, {"cluster.lease_expiries", "count"}, {"cluster.retries", "count"},
	{"worker.blocks_emitted", "count"}, {"worker.circuits_installed", "count"},
	{"service.queue_wait_s", "s"}, {"service.cache_hits", "count"}, {"service.cache_misses", "count"},
	{"service.cache_hit_s_p50", "s"}, {"service.upload_s", "s"}, {"service.journal_bytes", "B"},
	{"service.overhead_s", "s"},
	{"trace.overhead_frac", "frac"}, {"core.ref_covered_frac", "frac"}, {"core.rel_err_p50", "frac"},
}

// metrics turns the sums into the per-layer report. Unless final
// overrides it, a metric is its per-executed-job mean; rates and
// ratios divide totals; service.* means cover every job, cache hits
// included.
func (a *layerAcc) metrics(final map[string]float64) map[string]metric {
	val := map[string]float64{
		"core.round_s":                 ratio(a.sum["core.tail_s"], a.sum["core.merge_rounds"]),
		"core.sample_yield":            ratio(a.sum["core.samples"], a.sum["core.sampled_cycles"]),
		"sim.hidden_lane_cycles_per_s": ratio(a.sum["replay.hidden_lane_steps"], a.sum["sim.hidden_s"]),
		"compile.instructions_per_s":   ratio(a.sum["replay.hidden_insts"], a.sum["sim.hidden_s"]),
		"service.cache_hit_s_p50":      median(a.hitTimes),
		"service.upload_s":             ratio(a.sum["service.upload_s"], a.sum["service.uploads"]),
	}
	for _, n := range []string{"service.queue_wait_s", "service.cache_hits", "service.cache_misses",
		"service.journal_bytes", "service.overhead_s"} {
		val[n] = ratio(a.sum[n], float64(a.all))
	}
	for k, v := range final {
		val[k] = v
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := val[m.name]
		if !ok {
			v = a.perRan(m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// accuracy returns the share of converged jobs whose confidence interval
// covers the reference, and their median relative error.
func accuracy(outs []outcome, ref float64) (covered, relErrP50 float64) {
	var errs []float64
	n := 0
	for _, o := range outs {
		if o.Err != nil || !o.Converged || o.Cached {
			continue
		}
		d := o.Power - ref
		if d < 0 {
			d = -d
		}
		if d <= o.HalfWidth {
			n++
		}
		errs = append(errs, d/ref)
	}
	return ratio(float64(n), float64(len(errs))), median(errs)
}

// planCycles returns the cycles plan resolution added to a prepared
// job: the prepared point's cycles minus those of the same preparation
// under the plain estimator (selection is unchanged by the plan, see
// IntervalSelection.Covariates). Plain jobs resolve for free.
func planCycles(tb *core.Testbench, src vectors.Factory, seed int64, opts core.Options, fixed *int, rp core.ResumePoint) (uint64, error) {
	if opts.Variance.Mode.Canonical() == vr.ModeNone {
		return 0, nil
	}
	plain := opts
	plain.Variance = vr.Spec{}
	base, err := core.PreparePlanCtx(context.Background(), tb, src, seed, plain, fixed)
	if err != nil {
		return 0, err
	}
	return rp.Hidden + rp.Sampled - base.Hidden - base.Sampled, nil
}

// spanDur returns the duration of the first closed span with the name.
func spanDur(spans []obs.Span, name string) (start, dur float64, ok bool) {
	for _, s := range spans {
		if s.Name == name && s.EndMS != nil {
			return s.T / 1e3, (*s.EndMS - s.T) / 1e3, true
		}
	}
	return 0, 0, false
}

// lastEvent returns the time of the last span with the name and how
// many there were.
func lastEvent(spans []obs.Span, name string) (t float64, n int) {
	for _, s := range spans {
		if s.Name == name {
			t, n = s.T/1e3, n+1
		}
	}
	return t, n
}

// timingTransport is the coordinator's HTTP round tripper in traced
// runs: it times /v1/run sample streams (first byte, whole stream) and
// counts their bytes.
type timingTransport struct {
	base *http.Transport
	mu   sync.Mutex
	// requests, bytes, firstByteS and streamS cover finished streams.
	requests          int
	bytes             int64
	firstByteS, strmS float64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/run" {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

// timedBody books one stream into its transport when it is closed.
type timedBody struct {
	io.ReadCloser
	t         *timingTransport
	start     time.Time
	firstByte time.Duration
	n         int64
	once      sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.n == 0 {
		b.firstByte = time.Since(b.start)
	}
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.mu.Lock()
		b.t.requests++
		b.t.bytes += b.n
		b.t.firstByteS += b.firstByte.Seconds()
		b.t.strmS += time.Since(b.start).Seconds()
		b.t.mu.Unlock()
	})
	return err
}

func (t *timingTransport) snapshot() (requests int, bytes int64, firstByteS, streamS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests, t.bytes, t.firstByteS, t.strmS
}
