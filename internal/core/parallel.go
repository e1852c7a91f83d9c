package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// shard is one worker's slice of the replication space: a contiguous
// range of at most sim.CompiledMaxLanes replication indices driven by a
// single compiled lane session. Under the general-delay engine each
// shard's sampled cycles are observed word-level under the testbench's
// delay table; under the zero-delay engine they are observed as row
// diffs and delays is nil.
type shard struct {
	ps     *sim.CompiledSession
	delays *delay.Table
	lanes  int
	powers []float64 // per-block lane powers, round-major: [round*lanes + lane]
	cov    []float64 // per-round covariate scratch (control-variate runs only)
	counts []uint64  // per-node toggle accumulator (breakdown streams only)
	snap   []uint64  // counts snapshot at the block's merge-consumed round
}

// newShards builds the canonical shard layout over replications
// [lo, hi): SplitRange into at least `workers` shards (so the pool is
// saturated) and enough that none exceeds the compiled session width.
// Replication r keeps its globally fixed seed baseSeed+1+r regardless
// of the layout, and lane counts differ by at most one. Every sampling
// phase — in-process or on a cluster worker — runs through
// StreamReplications and so through this layout.
func newShards(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, plan vr.Plan, lo, hi, workers int) ([]*shard, error) {
	_, _, zeroDelay := sampledEngine(tb, opts, plan)
	n := hi - lo
	nShards := max(workers, (n+sim.CompiledMaxLanes-1)/sim.CompiledMaxLanes)
	shards := make([]*shard, 0, nShards)
	for _, b := range SplitRange(lo, hi, nShards) {
		lanes := b[1] - b[0]
		srcs := make([]vectors.Source, lanes)
		for k := range srcs {
			var err error
			if srcs[k], err = replicationSource(src, baseSeed, b[0]+k, plan); err != nil {
				return nil, err
			}
		}
		sh := &shard{
			ps: sim.NewCompiledSessionConfig(tb.Circuit, srcs, sim.CompiledConfig{
				CacheBudget: opts.CacheBudget,
				Workers:     opts.SessionWorkers,
			}),
			lanes: lanes,
		}
		if !zeroDelay {
			sh.delays = tb.Delays
		}
		if plan.NeedsCovariate() {
			sh.cov = make([]float64, lanes)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// sampledEngine names the engine that observes a run's sampled cycles
// and reports whether they are observed as zero-delay toggle diffs on
// the lane session. Under zero-delay mode they are, unless a control
// variate needs the general-delay sample beside its covariate; a
// general-delay run whose delay table is all-zero takes the same
// upgrade, since its powers are bit-identical (see delay.Table.AllZero).
// Otherwise each shard observes its lanes word-level with the
// event-driven semantics under the testbench's delay model. newShards
// and SamplingPhase both decide here, so the reported engine is always
// the one that ran.
func sampledEngine(tb *Testbench, opts Options, plan vr.Plan) (engine, delayModel string, zeroDelay bool) {
	if (!opts.Mode.IsZeroDelay() && !tb.Delays.AllZero()) || plan.NeedsCovariate() {
		return sim.EngineEventDriven, tb.Delays.ModelName, false
	}
	return sim.EngineCompiledZeroDelay, delay.Zero{}.Name(), true
}

// EstimateParallel runs the DIPE flow with many independent replications
// advanced concurrently. Interval selection runs once on a one-lane
// compiled session seeded baseSeed, whose samples are bit-identical to
// Estimate's scalar session over the same source (see PreparePlanCtx);
// sampling then shards opts.Replications independent sequences —
// replication r is seeded baseSeed+1+r, a fixed lane→seed mapping —
// across a goroutine worker pool. Each worker drives a compiled lane
// session (up to sim.CompiledMaxLanes replications) through the hidden
// cycles of the independence interval and, under general-delay mode,
// observes sampled cycles with the event-driven semantics word-level,
// 64 lanes per machine word, each lane bit-identical to the scalar
// simulator. Samples are merged into the stopping criterion
// deterministically (round-major, in replication order), so the result
// is reproducible and independent of opts.Workers and of goroutine
// scheduling.
//
// Compared to Estimate, the power samples come from Replications
// parallel sequences instead of one long sequence; samples remain
// i.i.d. across replications by construction (independent seeds), and
// within a replication at the selected independence interval.
func EstimateParallel(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (Result, error) {
	return EstimateParallelCtx(context.Background(), tb, src, baseSeed, opts)
}

// EstimateParallelCtx is EstimateParallel with cancellation: the
// sampling loop checks ctx between merged blocks and returns the partial
// (unconverged) result together with ctx.Err() when the context is
// cancelled. The dipe-server job manager uses this to abort jobs.
func EstimateParallelCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (Result, error) {
	// Phase 1 (interval selection on a one-lane session seeded baseSeed)
	// and plan resolution freeze into a ResumePoint; the sampling tail
	// runs from it. The split is the checkpoint seam the durable job
	// store persists across server restarts — the uninterrupted path
	// here is literally prepare-then-resume, so a resumed run cannot
	// diverge from it.
	start := time.Now()
	rp, err := PreparePlanCtx(ctx, tb, src, baseSeed, opts, nil)
	if err != nil {
		return Result{}, err
	}
	res, err := EstimateParallelResumeCtx(ctx, tb, src, baseSeed, opts, rp)
	res.Elapsed = time.Since(start)
	return res, err
}

// EstimateParallelWithInterval is the fixed-interval variant of
// EstimateParallel (the parallel analogue of EstimateWithInterval): it
// skips selection and samples every replication at the given interval.
func EstimateParallelWithInterval(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int) (Result, error) {
	return EstimateParallelWithIntervalCtx(context.Background(), tb, src, baseSeed, opts, interval)
}

// EstimateParallelWithIntervalCtx is EstimateParallelWithInterval with
// cancellation (see EstimateParallelCtx).
func EstimateParallelWithIntervalCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int) (Result, error) {
	start := time.Now()
	rp, err := PreparePlanCtx(ctx, tb, src, baseSeed, opts, &interval)
	if err != nil {
		return Result{}, err
	}
	res, err := EstimateParallelResumeCtx(ctx, tb, src, baseSeed, opts, rp)
	res.Elapsed = time.Since(start)
	return res, err
}

// runShards applies fn to every shard with at most `workers` goroutines
// in flight, and waits for all of them. A panic in fn (a user source,
// say) is recovered on its shard goroutine and re-raised on the calling
// goroutine once every shard has finished, carrying the shard's stack:
// the parallel path then fails the way the serial one does, where the
// caller's own recover (a service job, a worker's stream handler) can
// turn it into an error instead of the panic killing the process.
func runShards(shards []*shard, workers int, fn func(*shard)) {
	if workers <= 1 || len(shards) == 1 {
		for _, sh := range shards {
			fn(sh)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var (
		wg       sync.WaitGroup
		panicked sync.Once
		value    any
	)
	for _, sh := range shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(sh *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					panicked.Do(func() { value = fmt.Sprintf("%v\n\nshard goroutine stack:\n%s", r, debug.Stack()) })
				}
			}()
			fn(sh)
		}(sh)
	}
	wg.Wait()
	if value != nil {
		panic(value)
	}
}
