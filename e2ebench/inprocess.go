package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vectors"
)

// cliBench drives the in-process workloads: the estimator a CLI run
// calls, core.EstimateParallelCtx (or its fixed-interval variant), on a
// built-in circuit with the default compiled backend and GOMAXPROCS
// replication workers.
type cliBench struct {
	w    workload
	tb   *core.Testbench
	opts core.Options
	src  vectors.Factory
}

// setupInProcess builds the circuit and testbench, compiles the circuit
// and runs one untimed warm-up job. It returns the compile seconds.
func setupInProcess(w workload) (*cliBench, float64, error) {
	c, err := bench89.Get(w.Circuit)
	if err != nil {
		return nil, 0, err
	}
	b := &cliBench{w: w, tb: core.DefaultTestbench(c), opts: core.DefaultOptions(), src: vectors.IIDFactory(len(c.Inputs), 0.5)}
	b.opts.Replications = replications
	b.opts.Mode = w.Mode
	t := time.Now()
	compile.For(c)
	compileS := time.Since(t).Seconds()
	if o := b.runJob(job{Seed: warmupSeed}); o.Err != nil {
		return nil, 0, fmt.Errorf("warm-up job: %w", o.Err)
	}
	return b, compileS, nil
}

func (b *cliBench) fixed() *int {
	if b.w.Fixed < 0 {
		return nil
	}
	k := b.w.Fixed
	return &k
}

func fromResult(j job, res core.Result, err error, seconds float64) outcome {
	return outcome{
		Job: j, Seconds: seconds, Err: err,
		Power: res.Power, HalfWidth: res.HalfWidth, SampleSize: res.SampleSize, Interval: res.Interval,
		Hidden: res.HiddenCycles, Sampled: res.SampledCycles, Converged: res.Converged,
	}
}

// runJob is one untraced job through the public estimator entry point.
func (b *cliBench) runJob(j job) outcome {
	ctx := context.Background()
	t := time.Now()
	var (
		res core.Result
		err error
	)
	if b.w.Fixed >= 0 {
		res, err = core.EstimateParallelWithIntervalCtx(ctx, b.tb, b.src, j.Seed, b.opts, b.w.Fixed)
	} else {
		res, err = core.EstimateParallelCtx(ctx, b.tb, b.src, j.Seed, b.opts)
	}
	return fromResult(j, res, err, time.Since(t).Seconds())
}

// runTraced reruns a job as core.PreparePlanCtx followed by
// core.EstimateParallelResumeCtx — documented to be exactly
// EstimateParallelCtx — with an obs.Trace in the context and a counting
// vectors factory, then replays its sampling phase for the sim split.
// Only the prepare+resume pair is timed as the job.
func (b *cliBench) runTraced(j job, a *layerAcc, reg *obs.Registry, log *spanLog) outcome {
	cf := &countingFactory{inner: b.src}
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	before := promValues(reg)
	t0 := time.Now()
	rp, err := core.PreparePlanCtx(ctx, b.tb, cf.factory, j.Seed, b.opts, b.fixed())
	t1 := time.Now()
	var res core.Result
	if err == nil {
		res, err = core.EstimateParallelResumeCtx(ctx, b.tb, cf.factory, j.Seed, b.opts, rp)
	}
	t2 := time.Now()
	after := promValues(reg)
	o := fromResult(j, res, err, t2.Sub(t0).Seconds())
	if err != nil {
		return o
	}
	log.add(j.Index, "job", "", t0, t2)
	log.add(j.Index, "core.prepare", "job", t0, t1)
	log.add(j.Index, "core.resume", "job", t1, t2)

	spans := tr.Spans()
	_, selS, _ := spanDur(spans, "select-interval")
	_, planS, _ := spanDur(spans, "plan-resolve")
	_, rounds := lastEvent(spans, "merge-round")
	pc, err := planCycles(b.tb, b.src, j.Seed, b.opts, b.fixed(), rp)
	if err != nil {
		o.Err = err
		return o
	}
	a.all++
	a.bookJob(o, jobLayers{selectS: selS, planS: planS, tailS: t2.Sub(t1).Seconds(), rounds: rounds, rp: rp, planCycles: pc})
	a.addCompileDelta(before, after)
	a.addVectors(cf)
	t3 := time.Now()
	if _, err := simSplit(a, reg, b.tb, b.src, j.Seed, b.opts, rp.Plan, rp.Interval, rounds); err != nil {
		o.Err = err
		return o
	}
	log.add(j.Index, "sim.replay", "", t3, time.Now())
	return o
}

// runInProcess runs one in-process workload.
func runInProcess(cfg config, in *info) (report, error) {
	refs, err := loadReferences()
	if err != nil {
		return report{}, err
	}
	ref := refs[refKey(cfg.workload.Circuit, cfg.workload.Mode)]
	var (
		b                 *cliBench
		setups, compileSs []float64
	)
	for s := 0; s < setupReps; s++ {
		t := time.Now()
		nb, compileS, err := setupInProcess(cfg.workload)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		compileSs = append(compileSs, compileS)
		b = nb
	}
	st := b.tb.Circuit.ComputeStats()
	in.Gates, in.Latches = st.Gates, st.Latches

	window := cfg.window
	if cfg.trace {
		window /= 2 // the second half reruns the same jobs traced
	}
	g := &generator{w: cfg.workload, seed: cfg.seed}
	win := closedLoop(window, g, func(j job) outcome {
		o := b.runJob(j)
		// Collect the job's garbage outside its timed interval, so every
		// job starts from a clean heap as a CLI process does, and neither
		// job times nor the peak heap depend on when earlier jobs'
		// garbage happened to be collected.
		runtime.GC()
		return o
	})
	outs := win.outs
	failed := make([]bool, len(outs))
	for i, o := range outs {
		if err := checkReference(o, ref.Power); err != nil {
			failed[i] = true
			in.problem("job %d (seed %d): %v", i, o.Job.Seed, err)
		}
	}
	// Determinism: the same request must reproduce its result exactly.
	again := b.runJob(outs[0].Job)
	if err := sameResult(outs[0], again); err != nil {
		failed[0] = true
		in.problem("rerun of job 0 differs: %v", err)
	}
	exact := [2]outcome{outs[0], again}

	var metrics map[string]metric
	if !cfg.trace {
		metrics = e2eMetrics(win, failed, setups)
	} else {
		reg := obs.NewRegistry()
		sim.RegisterCompiledMetrics(reg)
		defer sim.RegisterCompiledMetrics(nil)
		a, log := newLayerAcc(), newSpanLog()
		var plain, traced []float64
		for i, o := range outs {
			t := b.runTraced(o.Job, a, reg, log)
			plain, traced = append(plain, o.Seconds), append(traced, t.Seconds)
			if t.Err != nil {
				failed[i] = true
				in.problem("traced rerun of job %d: %v", i, t.Err)
			} else if err := sameResult(o, t); err != nil {
				failed[i] = true
				in.problem("traced rerun of job %d differs: %v", i, err)
			}
		}
		covered, relErr := accuracy(outs, ref.Power)
		metrics = a.metrics(map[string]float64{
			"compile.build_s":       median(compileSs),
			"trace.overhead_frac":   median(traced)/median(plain) - 1,
			"core.ref_covered_frac": covered,
			"core.rel_err_p50":      relErr,
		})
		if in.SpanFile, err = log.write(cfg.root, cfg); err != nil {
			return report{}, err
		}
	}
	return finish(outs, failed, selfTest(outs, ref.Power, &exact), in, metrics), nil
}
