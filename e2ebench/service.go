package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench89"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// rig is the service-cluster-s1494 system under test, all in this
// process and on loopback: an HTTP service.Service with a durable
// JobStore in a state directory under the checkout, dispatching through
// a cluster.Coordinator to two cluster.Worker HTTP handlers. The service
// runs one job at a time and every job asks for Workers 1, so at most
// two simulation goroutines run at once.
type rig struct {
	dir     string
	serving sync.WaitGroup // one per server goroutine
	svc     *service.Service
	coord   *cluster.Coordinator
	servers []*http.Server
	base    string
	client  *http.Client
	reg     *obs.Registry
	wregs   []*obs.Registry
	// rt times the coordinator's sample streams (traced rigs only).
	rt *timingTransport
}

const rigWorkers = 2

// listen serves h on a loopback port until close, and returns its URL.
func (r *rig) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// startRig brings the rig up and waits until the service reports ready.
// Registries are wired as the dipe-server and dipe-worker commands wire
// them; traced rigs additionally route the coordinator's HTTP client
// through a timingTransport.
func startRig(root, tag string, traced bool) (*rig, error) {
	r := &rig{
		dir:    filepath.Join(root, ".bench_build", "state", strconv.Itoa(os.Getpid())+"-"+tag),
		reg:    obs.NewRegistry(),
		client: &http.Client{Transport: &http.Transport{}, Timeout: 3 * time.Minute},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	store, err := service.OpenJobStore(r.dir)
	if err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	sim.RegisterCompiledMetrics(r.reg)
	var urls []string
	for i := 0; i < rigWorkers; i++ {
		wreg := obs.NewRegistry()
		url, err := r.listen(cluster.NewWorker(cluster.WorkerConfig{Obs: wreg}).Handler())
		if err != nil {
			store.Close()
			r.close()
			return nil, err
		}
		r.wregs, urls = append(r.wregs, wreg), append(urls, url)
	}
	cc := cluster.CoordinatorConfig{Workers: urls, Obs: r.reg}
	if traced {
		r.rt = &timingTransport{base: &http.Transport{}}
		cc.Client = &http.Client{Transport: r.rt}
	}
	if r.coord, err = cluster.NewCoordinator(cc); err != nil {
		store.Close()
		r.close()
		return nil, err
	}
	r.svc = service.New(service.Config{Workers: 1, Dispatcher: r.coord, Store: store, Obs: r.reg})
	if r.base, err = r.listen(r.svc.Handler()); err != nil {
		r.close()
		return nil, err
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := r.client.Get(r.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("service did not become ready")
		}
	}
}

// close drains the service, stops every server and the coordinator's
// heartbeat, waits for them, and removes the state directory. It may
// run more than once.
func (r *rig) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	r.serving.Wait()
	if r.coord != nil {
		r.coord.Close()
	}
	r.client.CloseIdleConnections()
	if r.rt != nil {
		r.rt.base.CloseIdleConnections()
	}
	os.RemoveAll(r.dir)
}

func (r *rig) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(b, out)
	}
	return resp.StatusCode, nil
}

// request is the JobRequest a generated job sends.
func request(j job) service.JobRequest {
	return service.JobRequest{
		Circuit: j.Circuit,
		Seed:    j.Seed,
		Options: service.OptionsSpec{Replications: replications, Workers: 1, Variance: j.Variance},
	}
}

// svcOutcome is an outcome plus what the service said about the job.
type svcOutcome struct {
	outcome
	id      string
	uploadS float64
	view    *service.ResultView
}

// send runs one job through the HTTP API: an upload first for upload
// jobs, then submit and wait. Seconds covers submit to result.
func (r *rig) send(j job, text string) svcOutcome {
	so := svcOutcome{outcome: outcome{Job: j}}
	if j.Kind == kindUpload {
		t := time.Now()
		up := service.UploadRequest{Name: j.Circuit, Format: "bench", Text: text}
		if _, err := r.do(http.MethodPost, "/v1/circuits", up, nil); err != nil {
			so.Err = err
			return so
		}
		so.uploadS = time.Since(t).Seconds()
	}
	t := time.Now()
	var v service.JobView
	if _, err := r.do(http.MethodPost, "/v1/jobs", request(j), &v); err != nil {
		so.Err = err
		return so
	}
	so.id = v.ID
	for !v.State.Terminal() {
		if _, err := r.do(http.MethodGet, "/v1/jobs/"+v.ID+"/wait?timeout=120s", nil, &v); err != nil {
			so.Err = err
			return so
		}
	}
	so.Seconds = time.Since(t).Seconds()
	if v.State != service.StateDone || v.Result == nil {
		so.Err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		return so
	}
	rv := v.Result
	so.view = rv
	so.Power, so.HalfWidth, so.SampleSize, so.Interval = rv.Power, rv.HalfWidth, rv.SampleSize, rv.Interval
	so.Hidden, so.Sampled, so.Converged, so.Cached = rv.HiddenCycles, rv.SampledCycles, rv.Converged, rv.Cached
	return so
}

// sameView compares two result views field by field, except the cache
// flag and the per-job trace summary.
func sameView(a, b *service.ResultView) error {
	strip := func(v *service.ResultView) []byte {
		c := *v
		c.Cached, c.Trace = false, nil
		out, _ := json.Marshal(c)
		return out
	}
	if x, y := strip(a), strip(b); !bytes.Equal(x, y) {
		return fmt.Errorf("result fields differ:\n  %s\n  %s", x, y)
	}
	return nil
}

// verifier reruns service jobs in-process with core.EstimateParallel on
// the same circuit (the builtin, or the circuit parsed from the same
// upload text), seed and options.
type verifier struct {
	builtin *core.Testbench
	text    string
}

func (v *verifier) testbench(j job) (*core.Testbench, error) {
	if j.Circuit == v.builtin.Circuit.Name {
		return v.builtin, nil
	}
	c, err := netlist.ParseBenchString(j.Circuit, v.text)
	if err != nil {
		return nil, err
	}
	return core.DefaultTestbench(c), nil
}

func (v *verifier) run(j job) (outcome, error) {
	tb, err := v.testbench(j)
	if err != nil {
		return outcome{}, err
	}
	req := request(j)
	src, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return outcome{}, err
	}
	t := time.Now()
	res, err := core.EstimateParallel(tb, src, j.Seed, req.Options.Options())
	return fromResult(j, res, err, time.Since(t).Seconds()), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// setupRig starts a rig and runs its untimed warm-up job (a default job
// on the builtin circuit, which also installs it on the workers).
func setupRig(cfg config, tag string, traced bool) (*rig, error) {
	r, err := startRig(cfg.root, tag, traced)
	if err != nil {
		return nil, err
	}
	if o := r.send(job{Kind: kindDefault, Circuit: cfg.workload.Circuit, Seed: warmupSeed, Of: -1}, ""); o.Err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up job: %w", o.Err)
	}
	return r, nil
}

// runService runs the service-cluster workload.
func runService(cfg config, in *info) (report, error) {
	refs, err := loadReferences()
	if err != nil {
		return report{}, err
	}
	ref := refs[refKey(cfg.workload.Circuit, cfg.workload.Mode)]
	c, err := bench89.Get(cfg.workload.Circuit)
	if err != nil {
		return report{}, err
	}
	st := c.ComputeStats()
	in.Gates, in.Latches = st.Gates, st.Latches
	text := netlist.BenchString(c)

	var (
		r      *rig
		setups []float64
	)
	for s := 0; s < setupReps; s++ {
		if r != nil {
			r.close()
		}
		t := time.Now()
		if r, err = setupRig(cfg, "setup"+strconv.Itoa(s), false); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	g := &generator{w: cfg.workload, seed: cfg.seed}
	var sos []svcOutcome
	win := closedLoop(window, g, func(j job) outcome {
		so := r.send(j, text)
		sos = append(sos, so)
		return so.outcome
	})
	r.close()
	outs := win.outs

	failed := make([]bool, len(outs))
	fail := func(i int, format string, args ...any) {
		failed[i] = true
		in.problem("job %d (%s, seed %d): %s", i, outs[i].Job.Kind, outs[i].Job.Seed, fmt.Sprintf(format, args...))
	}
	v := &verifier{builtin: core.DefaultTestbench(c), text: text}
	var exact *[2]outcome
	for i, o := range outs {
		if err := checkReference(o, ref.Power); err != nil {
			fail(i, "%v", err)
			continue
		}
		if o.Job.Kind == kindRepeat {
			orig := sos[o.Job.Of]
			switch {
			case !o.Cached:
				fail(i, "repeat of job %d was not served from the cache", o.Job.Of)
			case orig.view == nil:
				fail(i, "repeated job %d has no result", o.Job.Of)
			default:
				if err := sameView(orig.view, sos[i].view); err != nil {
					fail(i, "cached repeat of job %d: %v", o.Job.Of, err)
				}
			}
			continue
		}
		if o.Cached {
			fail(i, "fresh request answered from the cache")
		}
		want, err := v.run(o.Job)
		if err == nil {
			err = sameResult(want, o)
		}
		if err != nil {
			fail(i, "differs from in-process core.EstimateParallel: %v", err)
		} else if exact == nil {
			exact = &[2]outcome{want, o}
		}
	}

	var metrics map[string]metric
	if !cfg.trace {
		metrics = e2eMetrics(win, failed, setups)
	} else {
		if metrics, err = tracedService(cfg, sos, failed, v, ref.Power, in); err != nil {
			return report{}, err
		}
	}
	return finish(outs, failed, selfTest(outs, ref.Power, exact), in, metrics), nil
}

// tracedService reruns the untraced window's jobs, in order, on a fresh
// traced rig, checks every result against the untraced one and derives
// the per-layer metrics from the job traces, the registries, the
// timing transport and in-process replays.
func tracedService(cfg config, sos []svcOutcome, failed []bool, v *verifier, ref float64, in *info) (map[string]metric, error) {
	text := v.text
	r, err := setupRig(cfg, "traced", true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	a, log := newLayerAcc(), newSpanLog()
	regs := append([]*obs.Registry{r.reg}, r.wregs...)
	before := promValues(regs...)
	req0, bytes0, firstByte0, stream0 := r.rt.snapshot() // the warm-up job's streams
	journal0 := dirBytes(r.dir)
	var plain, traced []float64
	for i, u := range sos {
		j := u.Job
		t0 := time.Now()
		cb := promValues(r.reg)
		so := r.send(j, text)
		ca := promValues(r.reg)
		log.add(i, "job", "", t0, time.Now())
		plain, traced = append(plain, u.Seconds), append(traced, so.Seconds)
		a.all++
		var diff error
		switch {
		case so.Err != nil:
			diff = so.Err
		case u.Err != nil:
			continue // already failed in the untraced window
		case u.Cached != so.Cached:
			diff = fmt.Errorf("cached %v != %v", u.Cached, so.Cached)
		default:
			diff = sameResult(u.outcome, so.outcome)
		}
		if diff != nil {
			failed[i] = true
			in.problem("traced rerun of job %d: %v", i, diff)
			continue
		}
		if j.Kind == kindUpload {
			a.add("service.uploads", 1)
			a.add("service.upload_s", so.uploadS)
		}
		var jt service.JobTrace
		if _, err := r.do(http.MethodGet, "/v1/jobs/"+so.id+"/trace", nil, &jt); err != nil {
			return nil, err
		}
		submitT, _ := lastEvent(jt.Spans, "submit")
		if so.Cached {
			a.hitTimes = append(a.hitTimes, so.Seconds)
			a.add("service.overhead_s", so.Seconds)
			continue
		}
		runT, _ := lastEvent(jt.Spans, "run")
		_, selS, _ := spanDur(jt.Spans, "select-interval")
		planT, planS, _ := spanDur(jt.Spans, "plan-resolve")
		lastRound, rounds := lastEvent(jt.Spans, "merge-round")
		sampling := lastRound - (planT + planS)
		a.add("service.queue_wait_s", runT-submitT)
		a.add("service.overhead_s", so.Seconds-selS-planS-sampling)
		a.addCompileDelta(cb, ca)

		// The core layer's cycle split and the sim and vectors layers
		// come from in-process replays of the same request.
		t1 := time.Now()
		tb, err := v.testbench(j)
		if err != nil {
			return nil, err
		}
		req := request(j)
		src, err := req.Source.Factory(len(tb.Circuit.Inputs))
		if err != nil {
			return nil, err
		}
		opts := req.Options.Options()
		rp, err := core.PreparePlanCtx(context.Background(), tb, src, j.Seed, opts, nil)
		if err != nil {
			return nil, err
		}
		pc, err := planCycles(tb, src, j.Seed, opts, nil, rp)
		if err != nil {
			return nil, err
		}
		a.bookJob(so.outcome, jobLayers{selectS: selS, planS: planS, tailS: sampling, rounds: rounds, rp: rp, planCycles: pc})
		cf, err := simSplit(a, r.reg, tb, src, j.Seed, opts, rp.Plan, rp.Interval, rounds)
		if err != nil {
			return nil, err
		}
		a.addVectors(cf)
		log.add(i, "replay", "", t1, time.Now())
	}
	journal := dirBytes(r.dir) - journal0
	r.close() // ends every stream, so the transport totals are final
	after := promValues(regs...)
	ran := float64(a.ran)
	req, nbytes, firstByte, streamS := r.rt.snapshot()
	req, nbytes, firstByte, streamS = req-req0, nbytes-bytes0, firstByte-firstByte0, streamS-stream0
	cl := map[string]float64{
		"cluster.stream_requests":   float64(req),
		"cluster.stream_bytes":      float64(nbytes),
		"cluster.block_wait_s":      delta(before, after, "dipe_cluster_stream_block_seconds_sum"),
		"cluster.lease_grants":      delta(before, after, "dipe_cluster_lease_grants_total"),
		"cluster.lease_expiries":    delta(before, after, "dipe_cluster_lease_expiries_total"),
		"cluster.retries":           delta(before, after, "dipe_cluster_worker_retries_total"),
		"worker.blocks_emitted":     delta(before, after, "dipe_worker_blocks_emitted_total"),
		"worker.circuits_installed": delta(before, after, "dipe_worker_circuits_installed"),
	}
	final := map[string]float64{
		"cluster.stream_first_byte_s": ratio(firstByte, float64(req)),
		"cluster.stream_s":            ratio(streamS, float64(req)),
	}
	for k, x := range cl {
		final[k] = ratio(x, ran)
	}
	final["service.cache_hits"] = ratio(delta(before, after, "dipe_service_cache_hits_total"), float64(a.all))
	final["service.cache_misses"] = ratio(delta(before, after, "dipe_service_cache_misses_total"), float64(a.all))
	final["service.journal_bytes"] = ratio(journal, float64(a.all))
	final["trace.overhead_frac"] = median(traced)/median(plain) - 1
	var outs []outcome
	for _, u := range sos {
		outs = append(outs, u.outcome)
	}
	final["core.ref_covered_frac"], final["core.rel_err_p50"] = accuracy(outs, ref)
	var builds []float64
	for k := 0; k < setupReps; k++ {
		t := time.Now()
		compile.Compile(v.builtin.Circuit)
		builds = append(builds, time.Since(t).Seconds())
	}
	final["compile.build_s"] = median(builds)
	if in.SpanFile, err = log.write(cfg.root, cfg); err != nil {
		return nil, err
	}
	return a.metrics(final), nil
}
