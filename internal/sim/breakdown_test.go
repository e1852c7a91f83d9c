package sim

import (
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/vectors"
)

// iidSources builds lane sources for global lanes [lo, hi): lane k is
// seeded base+k, the same mapping the parallel estimator uses, so any
// partition of the lane space draws the same per-lane streams.
func iidSources(width, lo, hi int, base int64) []vectors.Source {
	srcs := make([]vectors.Source, hi-lo)
	for k := range srcs {
		srcs[k] = vectors.NewIID(width, 0.5, base+int64(lo+k))
	}
	return srcs
}

// TestToggleCountsThreeWayDifferential pins the per-node transition
// counts three ways over every bench89 circuit: the scalar
// ZeroDelayToggle engine (one session per lane), one compiled session
// over all lanes, and compiled sessions tiling the lanes one word each —
// at lane widths crossing every word-partition boundary (one lane, a
// partial word, one word plus one, and eight full words). The counts
// are integer sums, so all three must agree exactly, not within
// tolerance: this is the invariant that makes breakdown reports lane-
// and shard-independent.
func TestToggleCountsThreeWayDifferential(t *testing.T) {
	const (
		hidden  = 6
		sampled = 10
		base    = int64(9000)
	)
	widths := []int{1, 63, 65, 512}
	for _, name := range bench89.Names() {
		c := bench89.MustGet(name)
		if testing.Short() && c.NumGates() > 700 {
			continue
		}
		w := make([]float64, c.NumNodes())
		for i := range w {
			w[i] = 1 + float64(i%5)
		}
		for _, lanes := range widths {
			if testing.Short() && lanes > 65 {
				continue
			}
			// Scalar reference: one ZeroDelayToggle session per lane,
			// accumulating into a shared count buffer.
			want := make([]uint64, c.NumNodes())
			for k := 0; k < lanes; k++ {
				s := NewSessionEngine(c, NewZeroDelayToggle(c),
					vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
				s.StepHiddenN(hidden)
				for i := 0; i < sampled; i++ {
					s.StepSampled(want)
				}
			}
			for _, tile := range []int{lanes, WordLanes} {
				got := make([]uint64, c.NumNodes())
				for lo := 0; lo < lanes; lo += tile {
					hi := min(lo+tile, lanes)
					ls := NewCompiledSession(c, iidSources(len(c.Inputs), lo, hi, base))
					ls.AccumulateToggles(got)
					powers := make([]float64, hi-lo)
					ls.StepHiddenN(hidden)
					for i := 0; i < sampled; i++ {
						ls.StepSampled(w, powers)
					}
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s lanes=%d tile=%d: node %s counts %d, scalar %d",
							name, lanes, tile, c.Nodes[i].Name, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestToggleCountsGeneralDelayMatchScalar covers the event-driven
// sampled path (StepSampledWith) and the paired observation path
// (StepSampledBoth): both accumulate the scalar engine's per-node
// counts, and the covariate word-level toggle diff of StepSampledBoth
// must not double-count. Under an all-zero delay table the event-driven
// counts are exactly the zero-delay toggle engine's, which the scalar
// reference sessions run.
func TestToggleCountsGeneralDelayMatchScalar(t *testing.T) {
	c := bench89.MustGet("s298")
	const lanes = 9
	const base = int64(77)
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	for _, both := range []bool{false, true} {
		want := make([]uint64, c.NumNodes())
		for k := 0; k < lanes; k++ {
			s := NewSessionEngine(c, NewZeroDelayToggle(c),
				vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
			s.StepHiddenN(4)
			for i := 0; i < 12; i++ {
				s.StepSampled(want)
			}
		}
		got := make([]uint64, c.NumNodes())
		ps := NewCompiledSession(c, iidSources(len(c.Inputs), 0, lanes, base))
		ps.AccumulateToggles(got)
		zt := delay.BuildTable(c, delay.Zero{})
		powers := make([]float64, lanes)
		toggles := make([]float64, lanes)
		ps.StepHiddenN(4)
		for i := 0; i < 12; i++ {
			if both {
				ps.StepSampledBoth(zt, w, powers, toggles)
			} else {
				ps.StepSampledWith(zt, w, powers)
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("both=%v: node %s counts %d, scalar %d", both, c.Nodes[i].Name, got[i], want[i])
			}
		}
	}
}

// TestToggleCountsNoOverflowAt32Bits is the widening regression test:
// per-node counts live in uint64 accumulators precisely because a long
// run at 64 lanes crosses 2^32 per node (a clock-like node toggling
// every cycle needs only ~9 minutes of simulated 100 MHz time). A
// pre-loaded accumulator at the uint32 boundary must keep counting past
// it — under []uint32 arithmetic these adds wrapped to small values.
func TestToggleCountsNoOverflowAt32Bits(t *testing.T) {
	c := bench89.MustGet("s298")
	w := make([]float64, c.NumNodes())
	counts := make([]uint64, c.NumNodes())
	for i := range counts {
		counts[i] = math.MaxUint32 - 8
	}
	ls := NewCompiledSession(c, iidSources(len(c.Inputs), 0, WordLanes, 5))
	ls.AccumulateToggles(counts)
	powers := make([]float64, WordLanes)
	ls.StepHiddenN(4)
	for i := 0; i < 32; i++ {
		ls.StepSampled(w, powers)
	}
	crossed := false
	for _, n := range counts {
		if n < math.MaxUint32-8 {
			t.Fatalf("count wrapped to %d", n)
		}
		if n > math.MaxUint32 {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("no node crossed the 32-bit boundary; the regression test lost its teeth")
	}
}
