package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file is the sampling phase of the parallel estimator, exported
// so the distributed coordinator (internal/cluster) can shard the
// replication space across processes while keeping the paper's
// sequential stopping rule statistically — and bit-for-bit — intact:
//
//   - StreamReplications runs a contiguous sub-range of the replication
//     space at a fixed interval and emits its samples in round-blocks.
//     The in-process estimator runs one stream over the whole space; a
//     cluster worker runs one per leased range.
//   - Merger owns the pooled stopping criterion and merges blocks of
//     per-replication samples in the canonical order (round-major,
//     ascending replication index).
//   - SamplingPhase drives a Merger from a ResumePoint: seeding, the
//     per-block order, the engine label, cycle counters, attribution and
//     telemetry. The in-process estimator and the coordinator both merge
//     through it, so a remote merge that feeds the same sample values
//     cannot diverge from the local estimator.
//
// Determinism contract: replication r is always seeded baseSeed+1+r, a
// replication's sample stream depends only on its own seed (lanes are
// independent), and the merge order is a pure function of
// (reps, rounds). Any partition of [0,reps) into contiguous ranges —
// goroutine shards, worker processes, or a retried reassignment after a
// worker death — therefore reproduces the single-process estimate
// exactly, including float summation order.

// Merger pools per-replication sample blocks into a stopping criterion
// with the budget rules of EstimateParallel. One block is n rounds; one
// round is one sample from every replication, merged in ascending
// replication order. Under the antithetic variance-reduction mode
// (Options.Variance) the merger is also the transform seam: each
// assembled round is reduced to pair means before feeding the
// criterion, so pairing is a pure function of the canonical merge order
// and replication pairs may span shard or worker boundaries freely.
type Merger struct {
	crit       stopping.Criterion
	reps       int
	rounds     int
	maxSamples int
	merged     int // rounds merged so far

	pairing  bool      // antithetic: criterion consumes pair means
	perRound int       // criterion samples per merged round
	round    []float64 // scratch: one assembled round (pairing only)
	pairs    []float64 // scratch: one round's pair means

	met   *Metrics  // convergence telemetry sink (nil = off)
	start time.Time // sampling-phase start, for samples/s
}

// NewMerger builds the pooled stopping state for an EstimateParallel-
// shaped run: opts.ReplicationCount() replications, block cadence
// max(1, CheckEvery/replications) rounds, sample budget MaxSamples, and
// the merge-side transform Options.Variance selects. opts must validate.
func NewMerger(opts Options) (*Merger, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reps := opts.ReplicationCount()
	rounds := max(1, opts.CheckEvery/reps)
	m := &Merger{
		crit:       opts.NewCriterion(opts.Spec),
		reps:       reps,
		rounds:     rounds,
		maxSamples: opts.MaxSamples,
		pairing:    opts.Variance.Mode.Canonical() == vr.ModeAntithetic,
		perRound:   opts.perRound(),
		met:        opts.Metrics,
		start:      time.Now(),
	}
	if m.met != nil {
		m.met.Runs.Inc()
	}
	if m.pairing {
		m.round = make([]float64, 0, reps)
		m.pairs = make([]float64, 0, m.perRound)
	}
	return m, nil
}

// Seed feeds an already-collected sample sequence (the accepted
// randomness-test sequence, under Options.ReuseTestSamples) into the
// criterion before any block is merged.
func (m *Merger) Seed(samples []float64) {
	for _, p := range samples {
		m.crit.Add(p)
	}
}

// Reps returns the width of the replication space.
func (m *Merger) Reps() int { return m.reps }

// Rounds returns the block cadence: the number of rounds a full block
// carries.
func (m *Merger) Rounds() int { return m.rounds }

// MergedRounds returns the number of rounds merged so far.
func (m *Merger) MergedRounds() int { return m.merged }

// PerRound returns the number of criterion samples one merged round
// yields: the replication count, halved under antithetic pairing.
func (m *Merger) PerRound() int { return m.perRound }

// NextRounds returns how many rounds the next merged block may contain:
// the block cadence, clipped to the remaining sample budget. A return
// below 1 means the budget cannot fund even one more round — the run
// must stop unconverged, exactly as EstimateParallel does.
func (m *Merger) NextRounds() int {
	return min(m.rounds, roundBudget(m.maxSamples, m.crit.N(), m.perRound))
}

// MergeBlock merges n rounds from contiguous replication ranges into
// the criterion. ranges[i] holds range i's samples, round-major
// ([t*lanes[i]+lane], at least n rounds); ranges must be ordered by
// ascending replication index and their lane counts must tile the full
// replication space. The merge order is round-major, ascending
// replication — the canonical order every estimator in this package
// produces.
func (m *Merger) MergeBlock(ranges [][]float64, lanes []int, n int) error {
	if len(ranges) != len(lanes) {
		return fmt.Errorf("core: %d sample ranges but %d lane counts", len(ranges), len(lanes))
	}
	total := 0
	for i, l := range lanes {
		total += l
		if len(ranges[i]) < n*l {
			return fmt.Errorf("core: range %d holds %d samples, need %d rounds x %d lanes",
				i, len(ranges[i]), n, l)
		}
	}
	if total != m.reps {
		return fmt.Errorf("core: ranges cover %d replications, want %d", total, m.reps)
	}
	for t := 0; t < n; t++ {
		if m.pairing {
			// Assemble the full round in canonical order, then feed the
			// criterion its pair means — the antithetic transform.
			m.round = m.round[:0]
			for i, l := range lanes {
				m.round = append(m.round, ranges[i][t*l:(t+1)*l]...)
			}
			m.pairs = vr.PairMeans(m.round, m.pairs[:0])
			for _, y := range m.pairs {
				m.crit.Add(y)
			}
			continue
		}
		for i, l := range lanes {
			for _, p := range ranges[i][t*l : (t+1)*l] {
				m.crit.Add(p)
			}
		}
	}
	m.merged += n
	if m.met != nil {
		// One telemetry update per merged block: the convergence
		// trajectory of the sequential stopping rule, live.
		m.met.Rounds.Add(uint64(n))
		m.met.Samples.Add(uint64(n * m.perRound))
		m.met.Mean.Set(m.crit.Estimate())
		m.met.HalfWidth.Set(m.crit.HalfWidth())
		if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
			m.met.Rate.Set(float64(m.crit.N()) / elapsed)
		}
	}
	return nil
}

// Done reports whether the pooled criterion has met the accuracy
// specification.
func (m *Merger) Done() bool { return m.crit.Done() }

// N returns the number of samples the criterion has consumed (seeded
// plus merged).
func (m *Merger) N() int { return m.crit.N() }

// Estimate returns the pooled point estimate.
func (m *Merger) Estimate() float64 { return m.crit.Estimate() }

// HalfWidth returns the pooled confidence half-width.
func (m *Merger) HalfWidth() float64 { return m.crit.HalfWidth() }

// CriterionName names the underlying stopping criterion.
func (m *Merger) CriterionName() string { return m.crit.Name() }

// Progress renders the pooled state as a Progress snapshot.
func (m *Merger) Progress(interval int) Progress {
	return Progress{
		Samples:   m.crit.N(),
		Power:     m.crit.Estimate(),
		HalfWidth: m.crit.HalfWidth(),
		Interval:  interval,
		Rounds:    m.merged,
		Elapsed:   time.Since(m.start).Seconds(),
	}
}

// SamplingPhase is the one merge loop of the parallel estimator's
// sampling phase. Callers deliver blocks and SamplingPhase does the rest:
//
//	for {
//		n, err := p.Next(ctx)
//		if err != nil || n < 1 {
//			return p.Finish(), err
//		}
//		// ...n rounds from every replication range, in range order...
//		if err := p.Merge(samples, lanes, n, toggles); err != nil {
//			return p.Finish(), err
//		}
//	}
//
// The in-process estimator feeds it from one local StreamReplications,
// the cluster coordinator from its leased worker streams. The embedded
// Merger exposes the pooled state (Reps, Rounds, N, ...).
type SamplingPhase struct {
	*Merger
	tb                 *Testbench
	opts               Options
	rp                 ResumePoint
	tr                 *obs.Trace
	engine, delayModel string
	budgetRounds       int      // round budget the streams clip toggle deltas to (breakdown only)
	counts             []uint64 // folded toggle deltas of the merged blocks (breakdown only)
}

// NewSamplingPhase starts the sampling phase of an EstimateParallel-
// shaped run at rp's interval under rp's plan. The criterion is seeded
// with rp.SeedSeq under opts.ReuseTestSamples. ctx supplies the trace
// the merge-round events go to.
func NewSamplingPhase(ctx context.Context, tb *Testbench, opts Options, rp ResumePoint) (*SamplingPhase, error) {
	if rp.Interval < 0 {
		return nil, fmt.Errorf("core: negative interval %d", rp.Interval)
	}
	m, err := NewMerger(opts)
	if err != nil {
		return nil, err
	}
	if opts.ReuseTestSamples {
		m.Seed(rp.SeedSeq)
	}
	p := &SamplingPhase{Merger: m, tb: tb, opts: opts, rp: rp, tr: obs.TraceFrom(ctx)}
	p.engine, p.delayModel, _ = sampledEngine(tb, opts, rp.Plan)
	if opts.Breakdown {
		p.counts = make([]uint64, tb.Circuit.NumNodes())
		p.budgetRounds = roundBudget(opts.MaxSamples, m.N(), m.PerRound())
	}
	return p, nil
}

// BudgetRounds returns the merge side's total round budget under
// Options.Breakdown (0 otherwise): the budgetRounds argument of
// StreamReplications, which keeps the toggle deltas of a budget-clipped
// final block exact.
func (p *SamplingPhase) BudgetRounds() int { return p.budgetRounds }

// Next reports how many rounds the next block merges. It returns 0 once
// the stopping rule is met or the sample budget cannot fund another
// round, and ctx.Err() if ctx is done.
func (p *SamplingPhase) Next(ctx context.Context) (int, error) {
	if p.Done() {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return max(0, p.NextRounds()), nil
}

// Merge merges n rounds of one block (see Merger.MergeBlock) and folds
// the ranges' toggle deltas (one per range under Options.Breakdown,
// ignored otherwise), then records the merge-round trace event and
// reports Progress.
func (p *SamplingPhase) Merge(samples [][]float64, lanes []int, n int, toggles [][]uint64) error {
	if p.counts != nil {
		if len(toggles) != len(samples) {
			return fmt.Errorf("core: %d toggle deltas for %d sample ranges", len(toggles), len(samples))
		}
		for i, d := range toggles {
			if len(d) != len(p.counts) {
				return fmt.Errorf("core: range %d carries %d node counts, want %d", i, len(d), len(p.counts))
			}
		}
	}
	if err := p.MergeBlock(samples, lanes, n); err != nil {
		return err
	}
	if p.counts != nil {
		for _, d := range toggles {
			for j, c := range d {
				p.counts[j] += c
			}
		}
	}
	p.tr.Event("merge-round",
		"rounds", strconv.Itoa(p.MergedRounds()),
		"samples", strconv.Itoa(p.N()),
		"halfWidth", strconv.FormatFloat(p.HalfWidth(), 'g', 6, 64))
	if p.opts.Progress != nil {
		p.opts.Progress(p.Progress(p.rp.Interval))
	}
	return nil
}

// Finish ends the phase: it reports a final Progress snapshot and
// returns the Result of the merged prefix, with rp's selection outcome
// and pre-sampling cycles restored. Cycle counters follow the canonical
// schedule — warm-up, then interval hidden cycles and one sampled cycle
// per merged round per replication — so they do not depend on how far
// any stream ran ahead of the merge. A phase that merged no block (the
// run converged or capped on its phase-1 samples) started no stream, so
// it charges no replication warm-up either. Call it once.
func (p *SamplingPhase) Finish() Result {
	if p.opts.Progress != nil {
		p.opts.Progress(p.Progress(p.rp.Interval))
	}
	reps, merged := uint64(p.Reps()), uint64(p.MergedRounds())
	var warmup uint64
	if merged > 0 {
		warmup = reps * uint64(p.opts.WarmupCycles)
	}
	res := Result{
		Power:          p.Estimate(),
		Interval:       p.rp.Interval,
		IntervalCapped: p.rp.Capped,
		Trials:         p.rp.Trials,
		SampleSize:     p.N(),
		HalfWidth:      p.HalfWidth(),
		HiddenCycles:   p.rp.Hidden + warmup + merged*uint64(p.rp.Interval)*reps,
		SampledCycles:  p.rp.Sampled + merged*reps,
		Criterion:      p.CriterionName(),
		Engine:         p.engine,
		DelayModel:     p.delayModel,
		Variance:       p.rp.Plan.Label(),
		CVBeta:         p.rp.Plan.Beta,
		Converged:      p.Done(),
	}
	if p.counts != nil {
		// The phase-1 toggles join the counts exactly when the phase-1
		// samples seeded the criterion, so counts and samples stay in
		// lockstep.
		observed := merged * reps
		if p.opts.ReuseTestSamples && len(p.rp.SeedToggles) == len(p.counts) {
			for i, c := range p.rp.SeedToggles {
				p.counts[i] += c
			}
			observed += uint64(len(p.rp.SeedSeq))
		}
		res.Breakdown = p.tb.Model.Breakdown(p.tb.Circuit, p.counts, observed)
		if p.opts.Metrics != nil {
			p.opts.Metrics.Power.Observe(res.Breakdown)
		}
	}
	return res
}

// SplitRange partitions [lo, hi) into k contiguous sub-ranges whose
// sizes differ by at most one, in ascending order. It is THE partition
// rule of the replication space: StreamReplications' lane sessions and
// the cluster coordinator's worker ranges both use it, which is what
// keeps every layout merging the same samples at the same boundaries.
func SplitRange(lo, hi, k int) [][2]int {
	out := make([][2]int, 0, k)
	next := lo
	for i := 0; i < k; i++ {
		width := (hi - next + k - i - 1) / (k - i)
		out = append(out, [2]int{next, next + width})
		next += width
	}
	return out
}

// SplitRangeAligned partitions [lo, hi) into k contiguous ascending
// sub-ranges whose boundaries are multiples of align relative to lo,
// with the final range absorbing the remainder. Alignment matters to
// the cluster's lease sizing: a lease that is a whole number of
// compiled-session widths (512 lanes) packs its replications into full
// word rows instead of leaving partial words at every lease boundary.
// The ranges still cover [lo, hi) exactly in ascending order — the
// merge rule is unchanged, so alignment can never change a result, only
// how the work is cut. align <= 1 (or a span smaller than k*align,
// which would force empty ranges) degrades gracefully toward
// SplitRange's unaligned cuts.
func SplitRangeAligned(lo, hi, k, align int) [][2]int {
	if align <= 1 {
		return SplitRange(lo, hi, k)
	}
	units := (hi - lo) / align
	out := make([][2]int, 0, k)
	next := lo
	for i, b := range SplitRange(0, units, k) {
		width := (b[1] - b[0]) * align
		if i == k-1 {
			width = hi - next
		}
		out = append(out, [2]int{next, next + width})
		next += width
	}
	return out
}

// ReplicationBlock is one round-block emitted by StreamReplications:
// Rounds rounds of samples from a contiguous replication range, round-
// major with replications ascending within a round.
type ReplicationBlock struct {
	// Index is the block's position in the stream (0-based, counting
	// skipped blocks).
	Index int
	// Rounds is the number of rounds in the block.
	Rounds int
	// Samples holds Rounds*lanes power samples, round-major.
	Samples []float64
	// Toggles holds the block's per-node transition-count delta (indexed
	// by NodeID, summed over the range's replications), emitted only
	// under Options.Breakdown. The delta covers exactly the rounds of
	// this block the merge side will consume — the block cadence, clipped
	// by the budgetRounds schedule — so folding the deltas of the merged
	// blocks reproduces the in-process accumulator bit for bit.
	Toggles []uint64
}

// StreamReplications runs replications [lo, hi) of an EstimateParallel-
// shaped run at a fixed independence interval and emits their power
// samples in blocks of `rounds` rounds. Replication r is seeded
// baseSeed+1+r, including the plan's antithetic mirroring of odd
// replications, so the emitted samples are bit-identical to the
// corresponding lanes of a single-process run, regardless of how
// [lo, hi) is packed into lane sessions or spread over opts.Workers
// goroutines. The in-process estimator is one stream over [0, reps);
// emit runs synchronously, so a block is computed only after the
// previous one has been handed over.
//
// plan is the resolved variance-reduction plan (ResolvePlan): under the
// control-variate mode each emitted sample is already transformed
// (Y = X - beta (C - mu_C)); under antithetic pairing samples stream
// raw and the Merger reduces assembled rounds to pair means, so pairs
// may span worker boundaries.
//
// skip fast-forwards the first `skip` blocks without observing power:
// the state trajectory of a sampled cycle equals a hidden cycle's, so a
// retried worker can reproduce a dead worker's remaining blocks exactly
// without re-transmitting (or re-weighing) the ones already merged.
// maxBlocks bounds the stream (0 = unbounded); emitting stops early
// when ctx is cancelled or emit returns an error.
//
// Under opts.Breakdown each block additionally carries its per-node
// transition-count delta. budgetRounds is the merge side's total round
// budget ((MaxSamples - seeded samples) / PerRound; 0 = unbounded): the
// merger clips its final block to it, so block b's delta covers
// min(rounds, budgetRounds - b*rounds) rounds even though the block
// always carries the full `rounds` rounds of samples. Outside breakdown
// runs budgetRounds is ignored.
//
// opts contributes WarmupCycles, Mode, Workers and Breakdown; the
// stopping criterion is not consulted — stopping is the merger's job.
func StreamReplications(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, plan vr.Plan, interval, lo, hi, rounds, skip, maxBlocks, budgetRounds int, emit func(ReplicationBlock) error) error {
	if err := opts.Mode.Validate(); err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	switch {
	case interval < 0:
		return fmt.Errorf("core: negative interval %d", interval)
	case lo < 0 || hi <= lo:
		return fmt.Errorf("core: bad replication range [%d, %d)", lo, hi)
	case rounds < 1:
		return fmt.Errorf("core: block rounds %d must be >= 1", rounds)
	case skip < 0:
		return fmt.Errorf("core: negative skip %d", skip)
	case opts.WarmupCycles < 0:
		return fmt.Errorf("core: negative WarmupCycles %d", opts.WarmupCycles)
	}
	n := hi - lo
	workers := opts.WorkerCount(n)
	// Contiguous ascending shards, so block assembly is
	// replication-ordered.
	shards, err := newShards(tb, src, baseSeed, opts, plan, lo, hi, workers)
	if err != nil {
		return err
	}
	obs.TraceFrom(ctx).Event("shard",
		"shards", strconv.Itoa(len(shards)),
		"workers", strconv.Itoa(workers),
		"replications", strconv.Itoa(n),
		"interval", strconv.Itoa(interval))
	// Per-node attribution: each shard counts into a private accumulator
	// and keeps a per-block snapshot (`snap`) taken after the rounds the
	// merge side will actually consume, so the emitted deltas track the
	// merger's clipped final block instead of the full block the stream
	// always carries.
	var prev []uint64
	if opts.Breakdown {
		prev = make([]uint64, tb.Circuit.NumNodes())
	}
	for _, sh := range shards {
		sh.powers = make([]float64, rounds*sh.lanes)
		if opts.Breakdown {
			sh.counts = make([]uint64, tb.Circuit.NumNodes())
			sh.snap = make([]uint64, tb.Circuit.NumNodes())
			sh.ps.AccumulateToggles(sh.counts)
		}
	}

	runShards(shards, workers, func(sh *shard) {
		sh.ps.StepHiddenN(opts.WarmupCycles)
	})
	if skip > 0 {
		// Power observation does not influence the state trajectory, so
		// skipped blocks replay as pure hidden cycles: interval hidden
		// cycles plus the would-be sampled cycle, per round.
		runShards(shards, workers, func(sh *shard) {
			sh.ps.StepHiddenN(skip * rounds * (interval + 1))
		})
	}
	weights := tb.Weights()
	for b := skip; maxBlocks == 0 || b < maxBlocks; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The rounds of this block the merge side will consume: the block
		// cadence, clipped by the remaining round budget (mirrors
		// Merger.NextRounds with merged == b*rounds).
		countRounds := rounds
		if budgetRounds > 0 {
			if cr := budgetRounds - b*rounds; cr < countRounds {
				countRounds = cr
			}
			if countRounds < 0 {
				countRounds = 0
			}
		}
		runShards(shards, workers, func(sh *shard) {
			for t := 0; t < rounds; t++ {
				sh.ps.StepHiddenN(interval)
				block := sh.powers[t*sh.lanes : (t+1)*sh.lanes]
				switch {
				case sh.cov != nil:
					sh.ps.StepSampledBoth(sh.delays, weights, block, sh.cov)
					for k, x := range block {
						block[k] = plan.Apply(x, sh.cov[k])
					}
				case sh.delays == nil:
					sh.ps.StepSampled(weights, block)
				default:
					sh.ps.StepSampledWith(sh.delays, weights, block)
				}
				if sh.snap != nil && t+1 == countRounds {
					copy(sh.snap, sh.counts)
				}
			}
		})
		samples := make([]float64, 0, rounds*n)
		for t := 0; t < rounds; t++ {
			for _, sh := range shards {
				samples = append(samples, sh.powers[t*sh.lanes:(t+1)*sh.lanes]...)
			}
		}
		var toggles []uint64
		if opts.Breakdown {
			toggles = make([]uint64, len(prev))
			for _, sh := range shards {
				for i, c := range sh.snap {
					toggles[i] += c
				}
			}
			for i := range toggles {
				toggles[i], prev[i] = toggles[i]-prev[i], toggles[i]
			}
		}
		if err := emit(ReplicationBlock{Index: b, Rounds: rounds, Samples: samples, Toggles: toggles}); err != nil {
			return err
		}
	}
	return nil
}
