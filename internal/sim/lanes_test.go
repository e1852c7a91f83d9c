package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/vectors"
)

// TestPropertyPackedMatchesScalar is the central bit-parallel property
// over seeded random circuits: after any multi-cycle run with latch
// feedback, every lane packed into a compiled session's words settles
// to exactly the same node values as a scalar ZeroDelay session driven
// by the same seed. All 64 lanes are checked every cycle.
func TestPropertyPackedMatchesScalar(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		const lanes = WordLanes
		base := int64(seed)*1000 + 1
		ps := NewCompiledSession(c, laneSources(len(c.Inputs), lanes, base))
		w := make([]float64, c.NumNodes())
		scalar := make([]*Session, lanes)
		dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
		for k := range scalar {
			scalar[k] = NewSession(c, dt, vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
		}
		vals := make([]bool, c.NumNodes())
		for cycle := 0; cycle < 12; cycle++ {
			ps.StepHidden()
			for k := 0; k < lanes; k++ {
				scalar[k].StepHidden()
			}
			for k := 0; k < lanes; k++ {
				ps.ExtractLane(k, vals, nil, nil)
				ref := scalar[k].Values()
				for i := range vals {
					if vals[i] != ref[i] {
						t.Logf("seed %d cycle %d lane %d: node %s mismatch",
							seed, cycle, k, c.Nodes[i].Name)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPackedSampledMatchesScalar interleaves hidden and
// general-delay sampled steps (the estimator's two-phase pattern) on a
// compiled session and asserts lane state AND per-cycle power agree
// with scalar sessions for every lane.
func TestPropertyPackedSampledMatchesScalar(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			return false
		}
		const lanes = WordLanes
		base := int64(seed)*2000 + 7
		ps := NewCompiledSession(c, laneSources(len(c.Inputs), lanes, base))
		w := make([]float64, c.NumNodes())
		for i := range w {
			w[i] = 1 + float64(i%5)
		}
		dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
		scalar := make([]*Session, lanes)
		for k := range scalar {
			scalar[k] = NewSession(c, dt, vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
		}
		rng := rand.New(rand.NewSource(int64(seed) + 3))
		powers := make([]float64, lanes)
		vals := make([]bool, c.NumNodes())
		q := make([]bool, len(c.Latches))
		sq := make([]bool, len(c.Latches))
		for cycle := 0; cycle < 20; cycle++ {
			if rng.Intn(2) == 0 {
				ps.StepHidden()
				for k := 0; k < lanes; k++ {
					scalar[k].StepHidden()
				}
			} else {
				ps.StepSampledWith(dt, w, powers)
				for k := 0; k < lanes; k++ {
					p := scalar[k].StepSampled(nil)
					if p != powers[k] {
						t.Logf("seed %d cycle %d lane %d: power %g, scalar %g",
							seed, cycle, k, powers[k], p)
						return false
					}
				}
			}
			for k := 0; k < lanes; k++ {
				ps.ExtractLane(k, vals, nil, q)
				scalar[k].State(sq)
				for i := range q {
					if q[i] != sq[i] {
						t.Logf("seed %d cycle %d lane %d: latch %d mismatch", seed, cycle, k, i)
						return false
					}
				}
				ref := scalar[k].Values()
				for i := range vals {
					if vals[i] != ref[i] {
						t.Logf("seed %d cycle %d lane %d: node %s mismatch",
							seed, cycle, k, c.Nodes[i].Name)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedCounters: a compiled session's per-replication cycle
// counters scale with the lane count.
func TestPackedCounters(t *testing.T) {
	c := bench89.S27()
	const lanes = 5
	ps := NewCompiledSession(c, laneSources(len(c.Inputs), lanes, 11))
	dt := delay.BuildTable(c, delay.Unit{})
	w := make([]float64, c.NumNodes())
	powers := make([]float64, lanes)
	ps.StepHiddenN(7)
	ps.StepSampledWith(dt, w, powers)
	ps.StepSampledWith(dt, w, powers)
	if ps.HiddenCycles != 7*lanes {
		t.Errorf("HiddenCycles = %d, want %d", ps.HiddenCycles, 7*lanes)
	}
	if ps.SampledCycles != 2*lanes {
		t.Errorf("SampledCycles = %d, want %d", ps.SampledCycles, 2*lanes)
	}
	ps.ResetCounters()
	if ps.HiddenCycles != 0 || ps.SampledCycles != 0 {
		t.Error("ResetCounters did not clear")
	}
}

// TestPackedFewerLanes: a partially filled word (lanes < 64) still
// matches scalar sessions lane-for-lane.
func TestPackedFewerLanes(t *testing.T) {
	c := bench89.MustGet("s298")
	const lanes = 9
	base := int64(41)
	ps := NewCompiledSession(c, laneSources(len(c.Inputs), lanes, base))
	w := make([]float64, c.NumNodes())
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	scalar := make([]*Session, lanes)
	for k := range scalar {
		scalar[k] = NewSession(c, dt, vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
	}
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, len(c.Inputs))
	for cycle := 0; cycle < 50; cycle++ {
		ps.StepHidden()
		for k := 0; k < lanes; k++ {
			scalar[k].StepHidden()
			ps.ExtractLane(k, vals, pins, nil)
			ref := scalar[k].Values()
			for i := range vals {
				if vals[i] != ref[i] {
					t.Fatalf("cycle %d lane %d: node %s mismatch", cycle, k, c.Nodes[i].Name)
				}
			}
		}
	}
}
