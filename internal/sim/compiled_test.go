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
)

// packedTile is one <=64-lane packed reference covering compiled lanes
// [lo, lo+ps.Lanes()). A compiled session wider than 64 lanes is
// checked against packed sessions tiling the same lane range — per-lane
// bit-identity is width-independent, so tiling checks exactly the
// multi-word packing contract.
type packedTile struct {
	lo int
	ps *PackedSession
}

// newPackedTiles builds packed reference sessions tiling `lanes` lanes
// with the same lane→seed mapping the compiled session uses.
func newPackedTiles(c *netlist.Circuit, lanes int, base int64) []packedTile {
	var tiles []packedTile
	for lo := 0; lo < lanes; lo += MaxLanes {
		n := lanes - lo
		if n > MaxLanes {
			n = MaxLanes
		}
		tiles = append(tiles, packedTile{
			lo: lo,
			ps: NewPackedSession(c, laneSources(len(c.Inputs), n, base+int64(lo))),
		})
	}
	return tiles
}

// diffCompiledPacked drives a compiled session and its packed reference
// tiles through `cycles` mixed steps (hidden runs and all three sampled
// flavours, chosen by a seeded rng) and reports any per-lane
// divergence: settled node values, input pattern, latch state,
// zero-delay toggle powers, general-delay powers, the control-variate
// covariate and the accumulated per-node counts must all be
// bit-identical. The packed tiles observe general-delay cycles one lane
// at a time with the scalar EventDriven, the compiled session with the
// word-level engine, so this is also the word engine's differential
// test against its scalar reference; the word engine's own settled
// values — of the last word it observed, whose waveforms it still holds
// — are checked against the session's after every general-delay step.
func diffCompiledPacked(t *testing.T, c *netlist.Circuit, lanes, cycles int, base, rngSeed int64) {
	t.Helper()
	diffCompiledPackedConfig(t, c, lanes, cycles, base, rngSeed, CompiledConfig{})
}

// diffCompiledPackedConfig is diffCompiledPacked with an explicit
// compiled-session configuration, so cache-blocked and level-parallel
// executions run through the same bit-identity battery as the plain
// compiled engine.
func diffCompiledPackedConfig(t *testing.T, c *netlist.Circuit, lanes, cycles int, base, rngSeed int64, cfg CompiledConfig) {
	t.Helper()
	diffCompiledPackedDelays(t, c, delay.BuildTable(c, delay.DefaultFanoutLoaded()), lanes, cycles, base, rngSeed, cfg)
}

// diffCompiledPackedDelays is diffCompiledPackedConfig under an explicit
// delay table for the general-delay steps.
func diffCompiledPackedDelays(t *testing.T, c *netlist.Circuit, dt *delay.Table, lanes, cycles int, base, rngSeed int64, cfg CompiledConfig) {
	t.Helper()
	cs := NewCompiledSessionConfig(c, laneSources(len(c.Inputs), lanes, base), cfg)
	tiles := newPackedTiles(c, lanes, base)
	weights := make([]float64, c.NumNodes())
	for i := range weights {
		weights[i] = 1 + float64(i%7)/3
	}
	cCounts := make([]uint64, c.NumNodes())
	pCounts := make([]uint64, c.NumNodes())
	cs.AccumulateToggles(cCounts)
	for _, tl := range tiles {
		tl.ps.AccumulateToggles(pCounts)
	}

	// The packed tiles write into their own slice of the lane-indexed
	// buffers, so comparisons address both sessions by global lane.
	cPow := make([]float64, lanes)
	cTog := make([]float64, lanes)
	pPow := make([]float64, lanes)
	pTog := make([]float64, lanes)
	cVals := make([]bool, c.NumNodes())
	pVals := make([]bool, c.NumNodes())
	cPins := make([]bool, len(c.Inputs))
	pPins := make([]bool, len(c.Inputs))
	cQ := make([]bool, len(c.Latches))
	pQ := make([]bool, len(c.Latches))

	compareLanes := func(cycle int, sampled, waved bool) {
		for i := range cCounts {
			if cCounts[i] != pCounts[i] {
				t.Fatalf("cycle %d: node %s count %d, packed %d", cycle, c.Nodes[i].Name, cCounts[i], pCounts[i])
			}
		}
		for _, tl := range tiles {
			for k := 0; k < tl.ps.Lanes(); k++ {
				lane := tl.lo + k
				if sampled {
					if cPow[lane] != pPow[lane] {
						t.Fatalf("cycle %d lane %d: power %g, packed %g", cycle, lane, cPow[lane], pPow[lane])
					}
					if cTog[lane] != pTog[lane] {
						t.Fatalf("cycle %d lane %d: toggle %g, packed %g", cycle, lane, cTog[lane], pTog[lane])
					}
				}
				cs.ExtractLane(lane, cVals, cPins, cQ)
				tl.ps.ExtractLane(k, pVals, pPins, pQ)
				for i := range cQ {
					if cQ[i] != pQ[i] {
						t.Fatalf("cycle %d lane %d: latch %d mismatch", cycle, lane, i)
					}
				}
				for i := range cPins {
					if cPins[i] != pPins[i] {
						t.Fatalf("cycle %d lane %d: input %d mismatch", cycle, lane, i)
					}
				}
				lastWord, bit := lane>>6 == (lanes-1)>>6, uint64(1)<<uint(lane&63)
				for i := range cVals {
					if cVals[i] != pVals[i] {
						t.Fatalf("cycle %d lane %d: node %s mismatch", cycle, lane, c.Nodes[i].Name)
					}
					if waved && lastWord && (waveSettled(cs.wave, i)&bit != 0) != cVals[i] {
						t.Fatalf("cycle %d lane %d: word engine settled node %s to %v", cycle, lane, c.Nodes[i].Name, !cVals[i])
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(rngSeed))
	for cycle := 0; cycle < cycles; cycle++ {
		sampled, waved := true, false
		switch rng.Intn(5) {
		case 0, 1:
			sampled = false
			cs.StepHidden()
			for _, tl := range tiles {
				tl.ps.StepHidden()
			}
		case 2:
			// Zero-delay word-level sampling (StepSampled). The toggle
			// comparison reuses the power slot: under this flavour the
			// toggle sum IS the power.
			cs.StepSampled(weights, cPow)
			copy(cTog, cPow)
			for _, tl := range tiles {
				tl.ps.StepSampled(weights, pPow[tl.lo:tl.lo+tl.ps.Lanes()])
			}
			copy(pTog, pPow)
		case 3:
			// General-delay sampling (StepSampledWith): word-level on the
			// compiled session, one scalar engine per lane on the tiles.
			waved = true
			cs.StepSampledWith(dt, weights, cPow)
			copy(cTog, cPow)
			for _, tl := range tiles {
				tl.ps.StepSampledWith(dt, weights, pPow[tl.lo:tl.lo+tl.ps.Lanes()])
			}
			copy(pTog, pPow)
		default:
			// Engine power plus toggle covariate (StepSampledBoth).
			waved = true
			cs.StepSampledBoth(dt, weights, cPow, cTog)
			for _, tl := range tiles {
				lo, hi := tl.lo, tl.lo+tl.ps.Lanes()
				tl.ps.StepSampledBoth(dt, weights, pPow[lo:hi], pTog[lo:hi])
			}
		}
		compareLanes(cycle, sampled, waved)
	}
	ch, csamp := cs.CycleCounts()
	var ph, psamp uint64
	for _, tl := range tiles {
		h, s := tl.ps.CycleCounts()
		ph += h
		psamp += s
	}
	if ch != ph || csamp != psamp {
		t.Fatalf("cycle counters (%d, %d), packed (%d, %d)", ch, csamp, ph, psamp)
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
// to s38417/s38584 — at full word width: compiled and interpreted
// sessions must agree bit-for-bit on all 64 lanes under both power
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
			diffCompiledPacked(t, c, MaxLanes, cycles, bench89SeedBase(name), 101)
		})
	}
}

// TestCompiledBlockedMatchesPacked reruns the differential battery with
// cache blocking forced into every degenerate regime: a tiny budget
// (many multi-instruction segments), one instruction per segment (the
// maximum spill traffic possible), blocking disabled outright, and the
// default budget. All must stay bit-identical to the packed
// interpreter.
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
				diffCompiledPackedConfig(t, c, MaxLanes, 10, bench89SeedBase(circuit), 7, tc.cfg)
			})
		}
	}
}

// TestCompiledParallelMatchesPacked reruns the battery with the
// level-parallel executor at several worker counts, including more
// workers than some levels have segments. Determinism does not depend
// on scheduling — each worker owns a fixed stripe of each wave — so the
// result must stay bit-identical to the serial interpreter.
func TestCompiledParallelMatchesPacked(t *testing.T) {
	for _, workers := range []int{2, 3, 7} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet("s1423")
			diffCompiledPackedConfig(t, c, MaxLanes, 10, 4242, 9, CompiledConfig{Workers: workers})
		})
	}
}

// TestCompiledBlockedStats sanity-checks the segmentation metadata on a
// forced-blocking session: blocking must actually engage, produce more
// than one segment, and bound the scratch file by the requested budget.
func TestCompiledBlockedStats(t *testing.T) {
	c := bench89.MustGet("s5378")
	lanes := MaxLanes
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
// word, against 64-lane packed tiles — under every delay table the
// word-level general-delay engine must reproduce the scalar one for:
// zero, unit, fanout-loaded, mixed zero/non-zero and a wide time span.
func TestCompiledMultiWordLanes(t *testing.T) {
	for _, circuit := range []string{"s298", "s1494"} {
		c := bench89.MustGet(circuit)
		for _, model := range []string{"zero", "unit", "fanout", "mixed-zero", "wide-span"} {
			dt := goldenTable(c, model)
			for _, lanes := range []int{1, 63, 64, 65, 256, 320, CompiledMaxLanes} {
				t.Run(fmt.Sprintf("%s/%s/%d", circuit, model, lanes), func(t *testing.T) {
					diffCompiledPackedDelays(t, c, dt, lanes, 10, int64(900+lanes), int64(lanes), CompiledConfig{})
				})
			}
		}
	}
}

// TestCycleStackMatchesScalar records one replication's sampled cycles
// with StepSampledRecord on one-lane sessions of both backends and
// checks the stacked word-level observation against a scalar session in
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
		for _, b := range Backends() {
			ref := NewSession(c, dt, laneSources(len(c.Inputs), 1, 77)[0], weights)
			ls := NewLaneSession(b, c, laneSources(len(c.Inputs), 1, 77))
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
							t.Fatalf("%s/%s/%d: cycle %d covariate %v, scalar %v", model, b, n, k, tog[0], cv)
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
						t.Fatalf("%s/%s/%d: cycle %d power %v, scalar %v", model, b, n, k, powers[k], want[k])
					}
				}
				for i := range counts {
					if counts[i] != wantCounts[i] {
						t.Fatalf("%s/%s/%d: node %s counted %d, scalar %d", model, b, n, c.Nodes[i].Name, counts[i], wantCounts[i])
					}
				}
				ls.ExtractLane(0, vals, nil, nil)
				for i, v := range ref.Values() {
					if vals[i] != v {
						t.Fatalf("%s/%s/%d: trajectory diverged at node %s", model, b, n, c.Nodes[i].Name)
					}
				}
			}
		}
	}
}

// TestCompiledMatchesPackedBenchgen runs the battery over exactly the
// randomized netlists cmd/benchgen emits (-family random:<seed>):
// generate, serialize to .bench text, reparse, and diff the reparsed
// circuit — so the compiled backend is checked against the interpreter
// on freshly parsed external netlists, not only on in-memory generator
// output.
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
			diffCompiledPacked(t, c, lanes, 16, int64(seed)*977+5, int64(seed)+55)
		})
	}
}

// TestPropertyCompiledMatchesPacked is the central compiler property
// over seeded random netlists: any generated circuit, any mixed
// hidden/sampled trajectory, every lane bit-identical to the
// interpreter.
func TestPropertyCompiledMatchesPacked(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		lanes := 1 + int(seed%uint32(2*MaxLanes+5))
		diffCompiledPacked(t, c, lanes, 14, int64(seed)*3000+17, int64(seed))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
