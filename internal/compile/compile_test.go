package compile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randomSignature mirrors the sim package's generator-signature helper.
func randomSignature(seed uint32) bench89.Signature {
	rng := rand.New(rand.NewSource(int64(seed)))
	pi := 3 + rng.Intn(8)
	po := 1 + rng.Intn(6)
	ff := 1 + rng.Intn(16)
	gates := 1 + 3*ff + po + rng.Intn(120)
	return bench89.Signature{
		Name:    fmt.Sprintf("rnd%d", seed),
		Inputs:  pi,
		Outputs: po,
		Latches: ff,
		Gates:   gates,
	}
}

// scalarSettle is the reference the programs are checked against: the
// scalar levelized settle run once per lane of the 64-lane words pins
// and q, its node values and latch D values packed back into ref and
// refD.
func scalarSettle(zd *sim.ZeroDelay, ref, refD, pins, q []uint64) {
	vals := make([]bool, len(ref))
	sp := make([]bool, len(pins))
	sq := make([]bool, len(q))
	nextQ := make([]bool, len(refD))
	clear(ref)
	clear(refD)
	for k := 0; k < 64; k++ {
		bit := uint64(1) << uint(k)
		for i, v := range pins {
			sp[i] = v&bit != 0
		}
		for i, v := range q {
			sq[i] = v&bit != 0
		}
		zd.Settle(vals, sp, sq)
		zd.NextState(vals, nextQ)
		for i, v := range vals {
			if v {
				ref[i] |= bit
			}
		}
		for i, v := range nextQ {
			if v {
				refD[i] |= bit
			}
		}
	}
}

// checkUnitExact compares both programs of a compiled Unit against the
// scalar levelized settle over `trials` random 64-lane states at word
// width w: Full must reproduce every node word, Step every latch D
// word.
func checkUnitExact(t *testing.T, c *netlist.Circuit, w, trials int, seed int64) {
	t.Helper()
	u := compile.Compile(c)
	zd := sim.NewZeroDelay(c)
	n := c.NumNodes()
	ref := make([]uint64, n)
	pins := make([]uint64, len(c.Inputs))
	q := make([]uint64, len(c.Latches))
	refD := make([]uint64, len(c.Latches))

	full := make([]uint64, u.Full.Slots*w)
	step := make([]uint64, u.Step.Slots*w)
	u.Full.InitConsts(full, w)
	u.Step.InitConsts(step, w)
	wide := func(file []uint64, rows []int32, src []uint64) {
		for i, r := range rows {
			for j := 0; j < w; j++ {
				// Replicate the 64-lane word into every lane word; lane
				// identity makes per-word comparison against the 64-lane
				// reference valid at any width.
				file[int(r)*w+j] = src[i]
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		for i := range pins {
			pins[i] = rng.Uint64()
		}
		for i := range q {
			q[i] = rng.Uint64()
		}
		scalarSettle(zd, ref, refD, pins, q)

		wide(full, u.Full.In, pins)
		wide(full, u.Full.Q, q)
		u.Full.Exec(full, w)
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				if full[i*w+j] != ref[i] {
					t.Fatalf("trial %d: Full node %s word %d = %#x, scalar %#x",
						trial, c.Nodes[i].Name, j, full[i*w+j], ref[i])
				}
			}
		}
		for i, d := range u.Full.D {
			for j := 0; j < w; j++ {
				if full[int(d)*w+j] != refD[i] {
					t.Fatalf("trial %d: Full D[%d] = %#x, scalar %#x", trial, i, full[int(d)*w+j], refD[i])
				}
			}
		}

		wide(step, u.Step.In, pins)
		wide(step, u.Step.Q, q)
		u.Step.Exec(step, w)
		for i, d := range u.Step.D {
			for j := 0; j < w; j++ {
				if step[int(d)*w+j] != refD[i] {
					t.Fatalf("trial %d: Step D[%d] word %d = %#x, scalar %#x",
						trial, i, j, step[int(d)*w+j], refD[i])
				}
			}
		}
	}
}

// TestUnitExactBench89 checks compiled-vs-scalar exactness on
// every bench89 circuit at 1- and 4-word widths.
func TestUnitExactBench89(t *testing.T) {
	for _, name := range bench89.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet(name)
			checkUnitExact(t, c, 1, 8, 11)
			checkUnitExact(t, c, 4, 3, 13)
		})
	}
}

// TestUnitExactRandom checks exactness on seeded random netlists, which
// reach degenerate shapes (constant cones, buffer chains, multi-level
// fanout) the curated benchmarks miss.
func TestUnitExactRandom(t *testing.T) {
	for seed := uint32(0); seed < 40; seed++ {
		c, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkUnitExact(t, c, 1, 6, int64(seed))
	}
}

// TestStepProgramShrinks asserts the Step program actually optimizes:
// on every bench89 circuit it must need no more instructions than Full
// (it restricts to the latch cone and fuses chains), and on at least
// one circuit strictly fewer.
func TestStepProgramShrinks(t *testing.T) {
	shrank := false
	for _, name := range bench89.Names() {
		c := bench89.MustGet(name)
		u := compile.Compile(c)
		fs, ss := u.Full.Stats(), u.Step.Stats()
		if ss.Insts > fs.Insts {
			t.Errorf("%s: Step has %d insts, Full %d", name, ss.Insts, fs.Insts)
		}
		if ss.Insts < fs.Insts {
			shrank = true
		}
		if ss.Slots > fs.Slots {
			t.Errorf("%s: Step uses %d slots, Full %d", name, ss.Slots, fs.Slots)
		}
	}
	if !shrank {
		t.Error("Step never produced a smaller program than Full on any bench89 circuit")
	}
}

// TestForCachesUnit: For compiles once and caches on the circuit.
func TestForCachesUnit(t *testing.T) {
	c := bench89.S27()
	u1 := compile.For(c)
	u2 := compile.For(c)
	if u1 != u2 {
		t.Error("For did not return the cached Unit")
	}
}
