package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// laneSources builds the fixed lane→seed mapping used throughout the
// tests: lane k gets an i.i.d. source seeded base+k.
func laneSources(width, lanes int, base int64) []vectors.Source {
	srcs := make([]vectors.Source, lanes)
	for k := range srcs {
		srcs[k] = vectors.NewIID(width, 0.5, base+int64(k))
	}
	return srcs
}

// scalarLanes is the differential battery's oracle: one scalar Session
// per compiled lane, seeded from the same source, whose power engine is
// switched per step to the one the compiled step flavour must equal —
// ZeroDelayToggle for zero-delay sampled steps, EventDriven under the
// battery's delay table for general-delay ones. Both engines leave the
// same settled values, so switching never perturbs a lane's trajectory.
type scalarLanes struct {
	ss  []*Session
	zdt *ZeroDelayToggle
	ed  *EventDriven
}

func newScalarLanes(c *netlist.Circuit, dt *delay.Table, weights []float64, lanes int, base int64) *scalarLanes {
	r := &scalarLanes{zdt: NewZeroDelayToggle(c), ed: NewEventDriven(c, dt)}
	for _, src := range laneSources(len(c.Inputs), lanes, base) {
		r.ss = append(r.ss, NewSessionEngine(c, r.ed, src, weights))
	}
	return r
}

// step advances every lane one cycle: hidden, zero-delay sampled (power
// = toggle), general-delay sampled, or general-delay plus the toggle
// covariate. Powers, toggles and counts are written as the compiled
// session writes them.
func (r *scalarLanes) step(kind int, powers, toggles []float64, counts []uint64) {
	for k, s := range r.ss {
		switch kind {
		case stepHidden:
			s.StepHidden()
		case stepZeroDelay:
			s.engine = r.zdt
			powers[k] = s.StepSampled(counts)
			toggles[k] = powers[k]
		case stepGeneral:
			s.engine = r.ed
			powers[k] = s.StepSampled(counts)
			toggles[k] = powers[k]
		default:
			s.engine = r.ed
			powers[k], toggles[k] = s.StepSampledPair(counts)
		}
	}
}

// The step flavours of the differential battery.
const (
	stepHidden = iota
	stepZeroDelay
	stepGeneral
	stepBoth
)

// diffCompiledScalar drives a compiled session and one scalar Session
// per lane through `cycles` mixed steps (hidden runs and all three
// sampled flavours, chosen by a seeded rng) and reports any per-lane
// divergence: settled node values, input pattern, latch state,
// zero-delay toggle powers, general-delay powers, the control-variate
// covariate, the accumulated per-node counts and the cycle counters must
// all be bit-identical. The compiled session observes general-delay
// cycles with the word-level engine and the scalar lanes with
// EventDriven, so this is also the word engine's differential test;
// the word engine's own settled values — of the last word it observed,
// whose waveforms it still holds — are checked against the session's
// after every general-delay step.
func diffCompiledScalar(t *testing.T, c *netlist.Circuit, lanes, cycles int, base, rngSeed int64) {
	t.Helper()
	diffCompiledScalarConfig(t, c, lanes, cycles, base, rngSeed, CompiledConfig{})
}

// diffCompiledScalarConfig is diffCompiledScalar with an explicit
// compiled-session configuration, so cache-blocked and level-parallel
// executions run through the same bit-identity battery as the plain
// compiled engine.
func diffCompiledScalarConfig(t *testing.T, c *netlist.Circuit, lanes, cycles int, base, rngSeed int64, cfg CompiledConfig) {
	t.Helper()
	diffCompiledScalarDelays(t, c, delay.BuildTable(c, delay.DefaultFanoutLoaded()), lanes, cycles, base, rngSeed, cfg)
}

// diffCompiledScalarDelays is diffCompiledScalarConfig under an explicit
// delay table for the general-delay steps.
func diffCompiledScalarDelays(t *testing.T, c *netlist.Circuit, dt *delay.Table, lanes, cycles int, base, rngSeed int64, cfg CompiledConfig) {
	t.Helper()
	cs := NewCompiledSessionConfig(c, laneSources(len(c.Inputs), lanes, base), cfg)
	weights := make([]float64, c.NumNodes())
	for i := range weights {
		weights[i] = 1 + float64(i%7)/3
	}
	ref := newScalarLanes(c, dt, weights, lanes, base)
	cCounts := make([]uint64, c.NumNodes())
	sCounts := make([]uint64, c.NumNodes())
	cs.AccumulateToggles(cCounts)

	cPow := make([]float64, lanes)
	cTog := make([]float64, lanes)
	sPow := make([]float64, lanes)
	sTog := make([]float64, lanes)
	cVals := make([]bool, c.NumNodes())
	cPins := make([]bool, len(c.Inputs))
	cQ := make([]bool, len(c.Latches))

	compareLanes := func(cycle int, sampled, waved bool) {
		for i := range cCounts {
			if cCounts[i] != sCounts[i] {
				t.Fatalf("cycle %d: node %s count %d, scalar %d", cycle, c.Nodes[i].Name, cCounts[i], sCounts[i])
			}
		}
		for lane, s := range ref.ss {
			if sampled {
				if cPow[lane] != sPow[lane] {
					t.Fatalf("cycle %d lane %d: power %g, scalar %g", cycle, lane, cPow[lane], sPow[lane])
				}
				if cTog[lane] != sTog[lane] {
					t.Fatalf("cycle %d lane %d: toggle %g, scalar %g", cycle, lane, cTog[lane], sTog[lane])
				}
			}
			cs.ExtractLane(lane, cVals, cPins, cQ)
			for i := range cQ {
				if cQ[i] != s.q[i] {
					t.Fatalf("cycle %d lane %d: latch %d mismatch", cycle, lane, i)
				}
			}
			for i := range cPins {
				if cPins[i] != s.pins[i] {
					t.Fatalf("cycle %d lane %d: input %d mismatch", cycle, lane, i)
				}
			}
			lastWord, bit := lane>>6 == (lanes-1)>>6, uint64(1)<<uint(lane&63)
			for i, v := range s.Values() {
				if cVals[i] != v {
					t.Fatalf("cycle %d lane %d: node %s mismatch", cycle, lane, c.Nodes[i].Name)
				}
				if waved && lastWord && (waveSettled(cs.wave, i)&bit != 0) != v {
					t.Fatalf("cycle %d lane %d: word engine settled node %s to %v", cycle, lane, c.Nodes[i].Name, !v)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(rngSeed))
	for cycle := 0; cycle < cycles; cycle++ {
		kind := stepHidden
		switch rng.Intn(5) {
		case 0, 1:
			cs.StepHidden()
		case 2:
			// Zero-delay word-level sampling (StepSampled). The toggle
			// comparison reuses the power slot: under this flavour the
			// toggle sum IS the power.
			kind = stepZeroDelay
			cs.StepSampled(weights, cPow)
			copy(cTog, cPow)
		case 3:
			// General-delay sampling (StepSampledWith), word-level.
			kind = stepGeneral
			cs.StepSampledWith(dt, weights, cPow)
			copy(cTog, cPow)
		default:
			// Engine power plus toggle covariate (StepSampledBoth).
			kind = stepBoth
			cs.StepSampledBoth(dt, weights, cPow, cTog)
		}
		ref.step(kind, sPow, sTog, sCounts)
		compareLanes(cycle, kind != stepHidden, kind == stepGeneral || kind == stepBoth)
	}
	ch, csamp := cs.CycleCounts()
	var sh, ssamp uint64
	for _, s := range ref.ss {
		sh += s.HiddenCycles
		ssamp += s.SampledCycles
	}
	if ch != sh || csamp != ssamp {
		t.Fatalf("cycle counters (%d, %d), scalar (%d, %d)", ch, csamp, sh, ssamp)
	}
}

// waveSettled returns node i's value word at the end of the word the
// engine observed last: its last change point's value, or its value
// before the cycle when it did not change.
func waveSettled(we *waveEngine, i int) uint64 {
	if n := we.npts[i]; n > 0 {
		return we.pts[we.first[i]+n-1].v
	}
	return we.init[i]
}

// TestCompiledMatchesPackedBench89 runs the differential battery over
// every bench89 circuit — the paper's 24 plus the extended large set up
// to s38417/s38584 — at full word width: every one of the 64 packed
// lanes must agree bit-for-bit with its scalar session under both power
// modes. Cycle counts scale down with circuit size so the big circuits
// stay affordable without losing coverage of the mixed step flavours.
func TestCompiledMatchesPackedBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet(name)
			cycles := 24
			switch {
			case c.NumNodes() > 10000:
				cycles = 4
			case c.NumNodes() > 500:
				cycles = 10
			}
			diffCompiledScalar(t, c, WordLanes, cycles, bench89SeedBase(name), 101)
		})
	}
}

// TestCompiledBlockedMatchesPacked reruns the differential battery with
// cache blocking forced into every degenerate regime: a tiny budget
// (many multi-instruction segments), one instruction per segment (the
// maximum spill traffic possible), blocking disabled outright, and the
// default budget. All must stay bit-identical to the scalar lanes.
func TestCompiledBlockedMatchesPacked(t *testing.T) {
	configs := []struct {
		name string
		cfg  CompiledConfig
	}{
		{"budget4k", CompiledConfig{CacheBudget: 4 << 10}},
		{"budget64k", CompiledConfig{CacheBudget: 64 << 10}},
		{"seg1", CompiledConfig{CacheBudget: 4 << 10, MaxSegInsts: 1}},
		{"unblocked", CompiledConfig{CacheBudget: -1}},
		{"default", CompiledConfig{}},
	}
	for _, circuit := range []string{"s298", "s1423", "s5378"} {
		c := bench89.MustGet(circuit)
		for _, tc := range configs {
			tc := tc
			t.Run(circuit+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				diffCompiledScalarConfig(t, c, WordLanes, 10, bench89SeedBase(circuit), 7, tc.cfg)
			})
		}
	}
}

// TestCompiledParallelMatchesPacked reruns the battery with the
// level-parallel executor at several worker counts, including more
// workers than some levels have segments. Determinism does not depend
// on scheduling — each worker owns a fixed stripe of each wave — so the
// result must stay bit-identical to the scalar lanes.
func TestCompiledParallelMatchesPacked(t *testing.T) {
	for _, workers := range []int{2, 3, 7} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet("s1423")
			diffCompiledScalarConfig(t, c, WordLanes, 10, 4242, 9, CompiledConfig{Workers: workers})
		})
	}
}

// TestCompiledBlockedStats sanity-checks the segmentation metadata on a
// forced-blocking session: blocking must actually engage, produce more
// than one segment, and bound the scratch file by the requested budget.
func TestCompiledBlockedStats(t *testing.T) {
	c := bench89.MustGet("s5378")
	lanes := WordLanes
	// 2KB is below both program's live-slot footprints at w=1 (full needs
	// ~3000 slots, step ~600), so blocking must engage on both.
	cs := NewCompiledSessionConfig(c, laneSources(len(c.Inputs), lanes, 1), CompiledConfig{CacheBudget: 2 << 10})
	step, full, blocked := cs.BlockedStats()
	if !blocked {
		t.Fatal("2KB budget on s5378 did not engage blocking")
	}
	w := (lanes + 63) / 64
	budgetSlots := (2 << 10) / (8 * w)
	for _, st := range []struct {
		name string
		s    compile.BlockedStats
	}{{"step", step}, {"full", full}} {
		if st.s.Segments < 2 {
			t.Fatalf("%s: got %d segments, want >= 2", st.name, st.s.Segments)
		}
		if st.s.ScratchSlots > budgetSlots {
			t.Fatalf("%s: scratch %d slots exceeds budget %d", st.name, st.s.ScratchSlots, budgetSlots)
		}
	}
	if _, _, blocked := NewCompiledSessionConfig(c, laneSources(len(c.Inputs), lanes, 1), CompiledConfig{CacheBudget: -1}).BlockedStats(); blocked {
		t.Fatal("CacheBudget -1 still produced a blocked program")
	}
}

// bench89SeedBase derives a stable per-circuit seed base.
func bench89SeedBase(name string) int64 {
	var h int64 = 1
	for _, r := range name {
		h = h*131 + int64(r)
	}
	return h&0xffff + 3
}

// TestCompiledMultiWordLanes checks the widened packing: 65, 256, 320
// and 512 lanes exercise 2- to 8-word rows, including a partial final
// word, against the scalar lanes — under every delay table the
// word-level general-delay engine must reproduce the scalar one for:
// zero, unit, fanout-loaded, mixed zero/non-zero and a wide time span.
func TestCompiledMultiWordLanes(t *testing.T) {
	for _, circuit := range []string{"s298", "s1494"} {
		c := bench89.MustGet(circuit)
		for _, model := range []string{"zero", "unit", "fanout", "mixed-zero", "wide-span"} {
			dt := goldenTable(c, model)
			for _, lanes := range []int{1, 63, 64, 65, 256, 320, CompiledMaxLanes} {
				t.Run(fmt.Sprintf("%s/%s/%d", circuit, model, lanes), func(t *testing.T) {
					diffCompiledScalarDelays(t, c, dt, lanes, 10, int64(900+lanes), int64(lanes), CompiledConfig{})
				})
			}
		}
	}
}

// TestCycleStackMatchesScalar records one replication's sampled cycles
// with StepSampledRecord on a one-lane compiled session and checks the
// stacked word-level observation against a scalar session in
// lock-step, cycle by cycle — power bits, per-node counts, the recorded
// covariate and the trajectory — across stack fills of 1 to 512 cycles
// on one reused stack.
func TestCycleStackMatchesScalar(t *testing.T) {
	c := bench89.MustGet("s1494")
	weights := make([]float64, c.NumNodes())
	rng := rand.New(rand.NewSource(5))
	for i := range weights {
		weights[i] = rng.Float64()
	}
	for _, model := range []string{"unit", "fanout", "mixed-zero"} {
		dt := goldenTable(c, model)
		ref := NewSession(c, dt, laneSources(len(c.Inputs), 1, 77)[0], weights)
		ls := NewCompiledSession(c, laneSources(len(c.Inputs), 1, 77))
		stack := NewCycleStack(c, CompiledMaxLanes)
		powers := make([]float64, CompiledMaxLanes)
		vals := make([]bool, c.NumNodes())
		var tog [1]float64
		for _, n := range []int{1, 63, 64, 65, 320, CompiledMaxLanes, 2} {
			want := make([]float64, n)
			wantCounts := make([]uint64, c.NumNodes())
			for k := 0; k < n; k++ {
				var x, cv float64
				if k%2 == 0 {
					x, cv = ref.StepSampledPair(wantCounts)
					ls.StepSampledRecord(stack, weights, tog[:])
					if tog[0] != cv {
						t.Fatalf("%s/%d: cycle %d covariate %v, scalar %v", model, n, k, tog[0], cv)
					}
				} else {
					x = ref.StepSampled(wantCounts)
					ls.StepSampledRecord(stack, weights, nil)
				}
				want[k] = x
				ref.StepHiddenN(k % 3)
				ls.StepHiddenN(k % 3)
			}
			counts := make([]uint64, c.NumNodes())
			stack.Observe(dt, weights, powers, counts)
			for k := 0; k < n; k++ {
				if powers[k] != want[k] {
					t.Fatalf("%s/%d: cycle %d power %v, scalar %v", model, n, k, powers[k], want[k])
				}
			}
			for i := range counts {
				if counts[i] != wantCounts[i] {
					t.Fatalf("%s/%d: node %s counted %d, scalar %d", model, n, c.Nodes[i].Name, counts[i], wantCounts[i])
				}
			}
			ls.ExtractLane(0, vals, nil, nil)
			for i, v := range ref.Values() {
				if vals[i] != v {
					t.Fatalf("%s/%d: trajectory diverged at node %s", model, n, c.Nodes[i].Name)
				}
			}
		}
	}
}

// TestCompiledMatchesPackedBenchgen runs the battery over exactly the
// randomized netlists cmd/benchgen emits (-family random:<seed>):
// generate, serialize to .bench text, reparse, and diff the reparsed
// circuit — so the compiled session is checked against the scalar
// lanes on freshly parsed external netlists, not only on in-memory
// generator output.
func TestCompiledMatchesPackedBenchgen(t *testing.T) {
	for seed := uint32(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			t.Parallel()
			gen, err := bench89.Generate(bench89.RandomSignature(seed))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := netlist.WriteBench(&buf, gen); err != nil {
				t.Fatal(err)
			}
			c, err := netlist.ParseBenchString(gen.Name, buf.String())
			if err != nil {
				t.Fatal(err)
			}
			lanes := 32 + int(seed)*29 // spans sub-word and multi-word widths
			diffCompiledScalar(t, c, lanes, 16, int64(seed)*977+5, int64(seed)+55)
		})
	}
}

// TestPropertyCompiledMatchesPacked is the central compiler property
// over seeded random netlists: any generated circuit, any mixed
// hidden/sampled trajectory, every packed lane bit-identical to its
// scalar session.
func TestPropertyCompiledMatchesPacked(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		lanes := 1 + int(seed%uint32(2*WordLanes+5))
		diffCompiledScalar(t, c, lanes, 14, int64(seed)*3000+17, int64(seed))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
