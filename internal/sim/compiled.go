package sim

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// WordLanes is the number of replication lanes one machine word of a
// register row holds.
const WordLanes = 64

// CompiledMaxLanes is the widest compiled session: 8 words of lanes per
// register row, so one pass over the program advances up to 512
// replications. Wider rows amortize the per-instruction dispatch cost
// over more lanes while keeping an s1494-sized register file inside L2.
const CompiledMaxLanes = 8 * WordLanes

// CompiledSession drives up to CompiledMaxLanes independent
// replications through clock cycles with the compiled word-level
// programs of internal/compile, instead of interpreting the CSR netlist
// gate-by-gate. It is the estimator's one lane-parallel engine, and lane
// k of it is bit-identical to a scalar Session seeded from srcs[k]
// (ZeroDelay for hidden cycles, ZeroDelayToggle or EventDriven for
// sampled ones):
//
//   - Hidden cycles execute the Step program, which computes only the
//     next latch state — dead fanout, BUF chains and fused gate chains
//     cost nothing. Full node values are left stale and recomputed
//     lazily (settling is a pure function of the current inputs and
//     latch state, so nothing is lost by deferring it).
//   - Sampled cycles execute the observation-exact Full program: one
//     register row per node, so the weighted toggle diff — accumulated
//     in node-index order per lane, exactly like ZeroDelayToggle — and
//     general-delay observation see precisely the scalar settled values.
//     The event-driven engine observes straight off the rows, 64 lanes
//     per machine word (waveEngine), each lane bit-identical to the
//     scalar simulator.
//
// Lanes are packed row-major: lane k lives in bit k%64 of word k/64 of
// every row, and all rows are w = ceil(lanes/64) words wide.
type CompiledSession struct {
	c     *netlist.Circuit
	unit  *compile.Unit
	srcs  []vectors.Source
	lanes int
	w     int      // words per register row
	masks []uint64 // per-word active-lane masks

	full    []uint64 // Full register file: NumNodes rows (settled iff fresh)
	oldFull []uint64 // previous settled rows, for zero-delay toggle diffs (nil before the first)
	step    []uint64 // Step register file
	fresh   bool     // full holds the settled values of the current (pins, q)

	// Blocked execution (nil runs the plain linear programs): the serial
	// cache-blocked forms share one scratch file; the level-parallel
	// forms run direct segments across goroutines. Either way per-lane
	// results are bit-identical to the unblocked programs.
	bFull   *compile.Blocked
	bStep   *compile.Blocked
	scratch []uint64

	pins  []uint64 // one row per input
	q     []uint64 // one row per latch
	nextQ []uint64
	buf   []uint64 // next packed pattern under construction

	laneBuf []bool   // one lane's pattern, as drawn from its source
	accBuf  []uint64 // word-local input accumulators (one per input)

	// wave observes general-delay sampled cycles 64 lanes per word
	// (built at the first one).
	wave *waveEngine

	// counts, when installed via AccumulateToggles, receives per-node
	// transition counts summed over all active lanes of every sampled
	// cycle.
	counts []uint64

	// HiddenCycles and SampledCycles count per-replication cycles (one
	// StepHidden over L lanes adds L), the same accounting as the scalar
	// Session.
	HiddenCycles  uint64
	SampledCycles uint64

	// ExecSeconds accumulates register-file execution time when the
	// session was built with CompiledConfig.Instrument; the companion
	// counters below accumulate the static cost of every executed pass
	// (instructions, dispatch waves, scratch spill rows, lane-steps) —
	// the same numbers the process-wide registry metrics export.
	instrument   bool
	ExecSeconds  float64
	Instructions uint64
	Waves        uint64
	SpillRows    uint64
	Execs        uint64

	costFull execCost // static per-pass cost of the Full form
	costStep execCost // static per-pass cost of the Step form
}

// CompiledConfig tunes how a compiled session executes its programs.
// The zero value selects the defaults; every setting is
// result-invariant (per-lane observations stay bit-identical).
type CompiledConfig struct {
	// CacheBudget bounds the blocked executor's scratch working set in
	// bytes. 0 selects compile.DefaultBudgetBytes; a negative value
	// disables blocked execution entirely (the plain linear programs). A
	// register file already within the budget still gets the blocked
	// form — one direct segment running batched wave dispatch.
	CacheBudget int
	// Workers > 1 executes each program's per-level instruction waves
	// across this many goroutines inside one session step (level
	// parallelism for big-circuit replications). Takes precedence over
	// cache blocking.
	Workers int
	// MaxSegInsts caps instructions per segment and forces blocking even
	// for cache-resident files — a test hook for the differential
	// battery's budget sweep (0 = off).
	MaxSegInsts int
	// Instrument accumulates wall time spent executing register-file
	// passes in ExecSeconds (two clock reads per pass) — benchmark
	// support for separating engine throughput from the bit-frozen
	// stimulus and observation layers.
	Instrument bool
}

// NewCompiledSession builds a compiled session over 1..CompiledMaxLanes
// per-lane sources with the default execution config.
func NewCompiledSession(c *netlist.Circuit, srcs []vectors.Source) *CompiledSession {
	return NewCompiledSessionConfig(c, srcs, CompiledConfig{})
}

// NewCompiledSessionConfig builds a compiled session over
// 1..CompiledMaxLanes per-lane sources, compiling the circuit on first
// use (the Unit is cached on the circuit). Every lane starts in the
// all-zero latch state with an all-zero input pattern, settled — the
// same reset state as a scalar Session.
func NewCompiledSessionConfig(c *netlist.Circuit, srcs []vectors.Source, cfg CompiledConfig) *CompiledSession {
	if len(srcs) == 0 || len(srcs) > CompiledMaxLanes {
		panic(fmt.Sprintf("sim: NewCompiledSession needs 1..%d sources, got %d", CompiledMaxLanes, len(srcs)))
	}
	for k, src := range srcs {
		if src.Width() != len(c.Inputs) {
			panic(fmt.Sprintf("sim: lane %d source width %d, circuit has %d inputs",
				k, src.Width(), len(c.Inputs)))
		}
	}
	lanes := len(srcs)
	w := (lanes + 63) / 64
	masks := make([]uint64, w)
	for j := range masks {
		masks[j] = ^uint64(0)
	}
	if r := lanes & 63; r != 0 {
		masks[w-1] = 1<<uint(r) - 1
	}
	u := compile.For(c)
	s := &CompiledSession{
		c:       c,
		unit:    u,
		srcs:    append([]vectors.Source(nil), srcs...),
		lanes:   lanes,
		w:       w,
		masks:   masks,
		full:    make([]uint64, u.Full.Slots*w),
		step:    make([]uint64, u.Step.Slots*w),
		pins:    make([]uint64, len(c.Inputs)*w),
		q:       make([]uint64, len(c.Latches)*w),
		nextQ:   make([]uint64, len(c.Latches)*w),
		buf:     make([]uint64, len(c.Inputs)*w),
		laneBuf: make([]bool, len(c.Inputs)),
		accBuf:  make([]uint64, len(c.Inputs)),
	}
	s.instrument = cfg.Instrument
	s.bFull = blockProgram(u.Full, w, cfg, true)
	s.bStep = blockProgram(u.Step, w, cfg, false)
	s.costFull = programCost(u.Full, s.bFull)
	s.costStep = programCost(u.Step, s.bStep)
	scratch := 0
	if s.bFull != nil && s.bFull.ScratchSlots > scratch {
		scratch = s.bFull.ScratchSlots
	}
	if s.bStep != nil && s.bStep.ScratchSlots > scratch {
		scratch = s.bStep.ScratchSlots
	}
	if scratch > 0 {
		s.scratch = make([]uint64, scratch*w)
	}
	// Constant rows are written once per register file; Exec never
	// touches them, and the full/oldFull swap exchanges two files that
	// both carry them. (Blocked segments load constant rows from the
	// global file like any other upward-exposed read.)
	u.Full.InitConsts(s.full, w)
	u.Step.InitConsts(s.step, w)
	s.settleFull()
	return s
}

// blockProgram picks a program's blocked form under the config: the
// level-parallel partition when Workers asks for one, the serial
// cache-blocked partition otherwise (a register file within the budget
// still gets the blocked form — a single direct segment whose
// wave-sorted code runs through the batched dispatcher), or nil with
// CacheBudget < 0 to run the plain linear program.
func blockProgram(p *compile.Program, w int, cfg CompiledConfig, observeAll bool) *compile.Blocked {
	if p.NumInsts() == 0 {
		return nil
	}
	if cfg.Workers > 1 {
		return compile.Block(p, compile.BlockOptions{Workers: cfg.Workers})
	}
	if cfg.CacheBudget < 0 {
		return nil
	}
	budget := cfg.CacheBudget
	if budget == 0 {
		budget = compile.DefaultBudgetBytes
	}
	return compile.Block(p, compile.BlockOptions{
		BudgetBytes: budget,
		W:           w,
		MaxSegInsts: cfg.MaxSegInsts,
		ObserveAll:  observeAll,
	})
}

// BlockedStats reports the session's blocked execution forms for
// reports and tests; blocked is false when both programs run plain.
func (s *CompiledSession) BlockedStats() (step, full compile.BlockedStats, blocked bool) {
	if s.bStep != nil {
		step = s.bStep.Stats()
	}
	if s.bFull != nil {
		full = s.bFull.Stats()
	}
	return step, full, s.bStep != nil || s.bFull != nil
}

// FileBytes reports the Step and Full register-file sizes in bytes at
// this session's width — the per-cycle working sets cache blocking
// targets.
func (s *CompiledSession) FileBytes() (step, full int) {
	return len(s.step) * 8, len(s.full) * 8
}

// programCost freezes a program form's per-pass execution cost: the
// plain linear form is one wave with no spills; a blocked form
// dispatches its wave count and copies its boundary rows every pass.
func programCost(p *compile.Program, b *compile.Blocked) execCost {
	c := execCost{insts: uint64(p.NumInsts()), waves: 1}
	if p.NumInsts() == 0 {
		c.waves = 0
	}
	if b != nil {
		st := b.Stats()
		c.waves = uint64(st.Waves)
		c.spills = uint64(st.LoadRows + st.StoreRows)
	}
	return c
}

// execProgram runs one program through its configured execution form.
// The telemetry updates are per pass, never per instruction: with no
// registry installed and Instrument off they cost one atomic pointer
// load and two branches, which is what keeps disabled observability
// under 1% of the duty cycle.
func (s *CompiledSession) execProgram(p *compile.Program, b *compile.Blocked, cost *execCost, vals []uint64) {
	var t0 time.Time
	if s.instrument {
		t0 = time.Now()
	}
	switch {
	case b == nil:
		p.Exec(vals, s.w)
	case b.Workers > 1:
		b.ExecParallel(vals, s.w)
	default:
		b.Exec(vals, s.scratch, s.w)
	}
	if s.instrument {
		s.ExecSeconds += time.Since(t0).Seconds()
		s.Execs++
		s.Instructions += cost.insts
		s.Waves += cost.waves
		s.SpillRows += cost.spills
	}
	if m := compiledMet.Load(); m != nil {
		m.Execs.Inc()
		m.Insts.Add(cost.insts)
		m.Waves.Add(cost.waves)
		m.SpillRows.Add(cost.spills)
		m.LaneSteps.Add(uint64(s.lanes))
	}
}

// Circuit returns the simulated circuit.
func (s *CompiledSession) Circuit() *netlist.Circuit { return s.c }

// Lanes returns the number of active replication lanes.
func (s *CompiledSession) Lanes() int { return s.lanes }

// ResetCounters zeroes the cycle-cost counters.
func (s *CompiledSession) ResetCounters() {
	s.HiddenCycles = 0
	s.SampledCycles = 0
}

// AccumulateToggles installs dst (len NumNodes, or nil to disable) as
// the per-node transition-count accumulator: every sampled cycle adds
// each active lane's transitions at node i into dst[i]. Zero-delay
// sampled steps count from the Full-file row diff (one popcount per
// node word, summed across the row's words), general-delay steps from
// the word-level engine's toggle words, so glitches are included.
// Counts are integers, so they equal the sum of the scalar sessions'
// counts regardless of lane width or word layout, and accumulation
// never perturbs powers.
func (s *CompiledSession) AccumulateToggles(dst []uint64) {
	if dst != nil && len(dst) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: AccumulateToggles length %d, want %d", len(dst), s.c.NumNodes()))
	}
	s.counts = dst
}

// CycleCounts returns the per-replication hidden and sampled cycle
// counts accumulated so far.
func (s *CompiledSession) CycleCounts() (hidden, sampled uint64) {
	return s.HiddenCycles, s.SampledCycles
}

// copyRows writes src (one row per element of rows) into the register
// file at the listed rows.
func copyRows(file []uint64, rows []int32, src []uint64, w int) {
	for i, r := range rows {
		copy(file[int(r)*w:(int(r)+1)*w], src[i*w:(i+1)*w])
	}
}

// settleFull executes the Full program for the current (pins, q),
// restoring the invariant that full holds every node's settled row.
func (s *CompiledSession) settleFull() {
	p := s.unit.Full
	copyRows(s.full, p.In, s.pins, s.w)
	copyRows(s.full, p.Q, s.q, s.w)
	s.execProgram(p, s.bFull, &s.costFull, s.full)
	s.fresh = true
}

// swapFull keeps the settled rows as oldFull, for a zero-delay toggle
// diff against the rows about to be settled. The second file is built
// at the first swap: a general-delay-only session never needs it.
func (s *CompiledSession) swapFull() {
	if s.oldFull == nil {
		s.oldFull = make([]uint64, len(s.full))
		s.unit.Full.InitConsts(s.oldFull, s.w)
	}
	s.full, s.oldFull = s.oldFull, s.full
}

// refreshFull re-settles the Full register file if hidden cycles left
// it stale. Settling is a pure function of (pins, q), so the recomputed
// rows are exactly what a scalar session would hold here.
func (s *CompiledSession) refreshFull() {
	if !s.fresh {
		s.settleFull()
	}
}

// b2u maps a bool to 0/1 branchlessly (the compiler emits SETcc, not a
// jump — drawn input bits are 50/50 random, so a branch here would
// mispredict half the time).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// drawInputs fills buf with every lane's next input pattern, consuming
// the sources in lane order.
// Lanes are packed one word at a time through register-local
// accumulators: the 64 lanes of a word OR into accBuf (a few hot cache
// lines) instead of read-modify-writing the strided buf rows per lane,
// and the bit insert is branchless.
func (s *CompiledSession) drawInputs() {
	w := s.w
	acc := s.accBuf
	for word := 0; word < w; word++ {
		for i := range acc {
			acc[i] = 0
		}
		lo, hi := word<<6, word<<6+64
		if hi > s.lanes {
			hi = s.lanes
		}
		for k := lo; k < hi; k++ {
			s.srcs[k].Next(s.laneBuf)
			bit := uint64(1) << uint(k&63)
			for i, v := range s.laneBuf {
				acc[i] |= bit * b2u(v)
			}
		}
		for i, a := range acc {
			s.buf[i*w+word] = a
		}
	}
}

// advanceHidden computes the packed next latch state with the Step
// program and draws the next input patterns. The Full file stays stale.
func (s *CompiledSession) advanceHidden() {
	p := s.unit.Step
	copyRows(s.step, p.In, s.pins, s.w)
	copyRows(s.step, p.Q, s.q, s.w)
	s.execProgram(p, s.bStep, &s.costStep, s.step)
	for i, d := range p.D {
		copy(s.nextQ[i*s.w:(i+1)*s.w], s.step[int(d)*s.w:(int(d)+1)*s.w])
	}
	s.drawInputs()
}

// advanceFull reads the packed next latch state out of the settled Full
// file (which must be fresh) and draws the next input patterns.
func (s *CompiledSession) advanceFull() {
	for i, d := range s.unit.Full.D {
		copy(s.nextQ[i*s.w:(i+1)*s.w], s.full[int(d)*s.w:(int(d)+1)*s.w])
	}
	s.drawInputs()
}

// StepHidden advances every lane one clock cycle with the Step program.
// No transitions are counted, and full node values are not maintained —
// the next sampled cycle recomputes them.
func (s *CompiledSession) StepHidden() {
	s.advanceHidden()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.fresh = false
	s.HiddenCycles += uint64(s.lanes)
}

// StepHiddenN advances n cycles with StepHidden.
func (s *CompiledSession) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.StepHidden()
	}
}

// StepSampled advances every lane one clock cycle and computes each
// lane's weighted zero-delay toggle power from the Full-program row
// diff: every set bit of a node's diff word adds the node's weight to
// its lane's sum. powers[k] receives lane k's sum (len(powers) >=
// Lanes()), bit-identical, float summation order included, to the
// scalar ZeroDelayToggle engine; glitches are excluded by construction.
func (s *CompiledSession) StepSampled(weights []float64, powers []float64) {
	if len(powers) < s.lanes {
		panic(fmt.Sprintf("sim: compiled StepSampled powers length %d, want >= %d", len(powers), s.lanes))
	}
	if len(weights) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: compiled StepSampled weights length %d, want %d", len(weights), s.c.NumNodes()))
	}
	s.refreshFull()
	s.advanceFull()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.swapFull()
	s.settleFull()
	s.toggleDiff(weights, powers, s.counts)
	s.SampledCycles += uint64(s.lanes)
}

// observeLanes observes every lane of the advanced-but-unapplied state
// (settled values in full, new pins in buf, new latch state in nextQ)
// word-level, straight off the rows, under the delay table dt: each
// lane is bit-identical to EventDriven.Cycle under dt (see waveEngine).
func (s *CompiledSession) observeLanes(dt *delay.Table, weights, powers []float64) {
	if s.wave == nil {
		s.wave = newWaveEngine(s.c)
	}
	s.wave.observe(dt.Delays, s.full, s.buf, s.nextQ, s.w, s.lanes, weights, powers, s.counts)
}

// toggleDiff accumulates each lane's weighted toggle sum from the
// settled row diff (full vs oldFull). Iteration is word-outer: every
// lane lives in exactly one word, so each lane still sees its weights
// added in ascending node order — the float summation order per lane is
// identical to ZeroDelayToggle's; only the (unobservable) cross-lane
// interleaving changes. Word-outer lets each word's 64-lane power span
// be addressed through a fixed-size array pointer, eliminating the
// bounds check on the scatter add in the hottest loop of StepSampled.
//
// counts, when non-nil, additionally receives each node's cross-lane
// transition count: one popcount per (node, word), summed across the
// row's words. Integer sums are order-independent, so the accumulated
// counts are the same at any lane width.
// StepSampledBoth passes nil here because its counts come from the
// general-delay observation, which would otherwise double-count the
// cycle.
func (s *CompiledSession) toggleDiff(weights, powers []float64, counts []uint64) {
	for k := 0; k < s.lanes; k++ {
		powers[k] = 0
	}
	w := s.w
	full, old := s.full, s.oldFull
	for j := 0; j < w; j++ {
		// Inactive lanes are masked out: their inputs are frozen at the
		// reset pattern but latch feedback could still toggle them.
		mask := s.masks[j]
		if base := j << 6; base+64 <= len(powers) {
			pw := (*[64]float64)(powers[base:])
			if counts != nil {
				for i, wt := range weights {
					d := (full[i*w+j] ^ old[i*w+j]) & mask
					counts[i] += uint64(bits.OnesCount64(d))
					for ; d != 0; d &= d - 1 {
						pw[bits.TrailingZeros64(d)&63] += wt
					}
				}
			} else {
				for i, wt := range weights {
					d := (full[i*w+j] ^ old[i*w+j]) & mask
					for ; d != 0; d &= d - 1 {
						pw[bits.TrailingZeros64(d)&63] += wt
					}
				}
			}
		} else {
			// Final partial word: fewer than 64 lanes of powers remain.
			pw := powers[base:]
			for i, wt := range weights {
				d := (full[i*w+j] ^ old[i*w+j]) & mask
				if counts != nil {
					counts[i] += uint64(bits.OnesCount64(d))
				}
				for ; d != 0; d &= d - 1 {
					pw[bits.TrailingZeros64(d)] += wt
				}
			}
		}
	}
}

// StepSampledWith advances every lane one clock cycle, observing each
// lane as the event-driven simulator under dt would — the general-delay
// path, run word-level (observeLanes). powers[k] receives lane k's
// weighted transition sum (len(powers) >= Lanes()).
func (s *CompiledSession) StepSampledWith(dt *delay.Table, weights []float64, powers []float64) {
	if len(powers) < s.lanes {
		panic(fmt.Sprintf("sim: compiled StepSampledWith powers length %d, want >= %d", len(powers), s.lanes))
	}
	s.refreshFull()
	s.advanceFull()
	s.observeLanes(dt, weights, powers)
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.settleFull()
	s.SampledCycles += uint64(s.lanes)
}

// StepSampledBoth advances every lane one clock cycle, observing each
// lane under dt (as StepSampledWith) while also computing the
// zero-delay toggle covariate from the row diff (as StepSampled). The
// same cycle thus yields the general-delay sample and its
// functional-toggle covariate, which is what the control-variate
// transform consumes: the covariate costs one extra diff pass, not a
// second simulation.
func (s *CompiledSession) StepSampledBoth(dt *delay.Table, weights []float64, powers, toggles []float64) {
	if len(powers) < s.lanes || len(toggles) < s.lanes {
		panic(fmt.Sprintf("sim: compiled StepSampledBoth powers/toggles lengths %d/%d, want >= %d",
			len(powers), len(toggles), s.lanes))
	}
	if len(weights) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: compiled StepSampledBoth weights length %d, want %d", len(weights), s.c.NumNodes()))
	}
	s.refreshFull()
	s.advanceFull()
	s.observeLanes(dt, weights, powers)
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.swapFull()
	s.settleFull()
	s.toggleDiff(weights, toggles, nil)
	s.SampledCycles += uint64(s.lanes)
}

// StepSampledRecord advances every lane one clock cycle as a sampled
// cycle and records each lane's cycle — its settled values before the
// step, its new input pattern and latch state — as the next Lanes()
// cycles of stack, for word-level observation later
// (CycleStack.Observe). toggles, when non-nil, receives each lane's
// zero-delay toggle power exactly as StepSampled computes it; transition
// counts are left to the observation.
func (s *CompiledSession) StepSampledRecord(stack *CycleStack, weights, toggles []float64) {
	s.refreshFull()
	s.advanceFull()
	stack.record(s.full, s.buf, s.nextQ, s.w, s.lanes)
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	if toggles != nil {
		s.swapFull()
	}
	s.settleFull()
	if toggles != nil {
		s.toggleDiff(weights, toggles, nil)
	}
	s.SampledCycles += uint64(s.lanes)
}

// ExtractLane copies lane k's settled state into scalar arrays — node
// values (len NumNodes), input pattern (len #inputs) and latch state
// (len #latches); any destination may be nil — re-settling the Full
// file first if hidden cycles left it stale.
func (s *CompiledSession) ExtractLane(k int, vals, pins, q []bool) {
	if k < 0 || k >= s.lanes {
		panic(fmt.Sprintf("sim: ExtractLane %d of %d", k, s.lanes))
	}
	if vals != nil {
		s.refreshFull()
		s.extractRows(k, vals, s.full)
	}
	if pins != nil {
		s.extractRows(k, pins, s.pins)
	}
	if q != nil {
		s.extractRows(k, q, s.q)
	}
}

// extractRows unpacks lane k of every w-word row in src into dst.
func (s *CompiledSession) extractRows(k int, dst []bool, src []uint64) {
	word, bit := k>>6, uint64(1)<<uint(k&63)
	for i := range dst {
		dst[i] = src[i*s.w+word]&bit != 0
	}
}
