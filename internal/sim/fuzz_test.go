package sim

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// FuzzCompile feeds arbitrary ISCAS89 ".bench" text through the parser
// and, whenever a circuit results, through the compiler and one
// hidden-plus-sampled trajectory, asserting the compiled session agrees
// with the interpreted packed session on every lane and that nothing
// panics on degenerate shapes — constant cones, buffer chains, latches
// fed by latches, unused inputs. The budget byte steers the blocked /
// level-parallel configuration, so segmentation and spill analysis are
// fuzzed on the same degenerate shapes: 0 = plain, 1 = one instruction
// per segment, 2 = blocking disabled, 3 = two workers, otherwise a tiny
// byte-scaled cache budget. It also picks the delay table (zero, unit,
// fanout-loaded, mixed zero/non-zero, wide span) of a mixed trajectory
// through the differential battery, which checks the word-level
// general-delay engine against the scalar one lane by lane: powers,
// counts and settled rows.
func FuzzCompile(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, a)\n", byte(0))
	f.Add("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(q)\nz = OR(a, q)\n", byte(1))
	f.Add("INPUT(a)\nOUTPUT(z)\nc0 = CONST0()\nb = BUF(c0)\nq = DFF(b)\nz = XOR(a, q)\n", byte(2))
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = NAND(a, XNORg)\nXNORg = XNOR(b, q1)\n", byte(3))
	f.Add("INPUT(a)\nOUTPUT(z)\nc1 = CONST1()\nz = XOR(a, c1)\nq = DFF(z)\n", byte(64))
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(z)\nn = NOT(a)\nx = AND(a, n)\ny = OR(x, b, q)\nz = XOR(y, n)\n", byte(7))
	f.Fuzz(func(t *testing.T, text string, budget byte) {
		c, err := netlist.ParseBenchString("fuzz", text)
		if err != nil {
			t.Skip()
		}
		// Compile must handle anything the parser accepts.
		u := compile.Compile(c)
		if u.Full == nil || u.Step == nil {
			t.Fatal("Compile returned nil program")
		}
		var cfg CompiledConfig
		switch budget {
		case 0: // plain default
		case 1:
			cfg = CompiledConfig{CacheBudget: 256, MaxSegInsts: 1}
		case 2:
			cfg = CompiledConfig{CacheBudget: -1}
		case 3:
			cfg = CompiledConfig{Workers: 2}
		default:
			cfg = CompiledConfig{CacheBudget: int(budget) * 16}
		}
		const lanes = 3
		srcs := func() []vectors.Source {
			out := make([]vectors.Source, lanes)
			for k := range out {
				out[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(100+k))
			}
			return out
		}
		cs := NewCompiledSessionConfig(c, srcs(), cfg)
		ps := NewPackedSession(c, srcs())
		weights := make([]float64, c.NumNodes())
		for i := range weights {
			weights[i] = 1 + float64(i%3)
		}
		cPow := make([]float64, lanes)
		pPow := make([]float64, lanes)
		cVals := make([]bool, c.NumNodes())
		pVals := make([]bool, c.NumNodes())
		for cycle := 0; cycle < 4; cycle++ {
			cs.StepHidden()
			ps.StepHidden()
		}
		cs.StepSampled(weights, cPow)
		ps.StepSampled(weights, pPow)
		for k := 0; k < lanes; k++ {
			if cPow[k] != pPow[k] {
				t.Fatalf("lane %d: compiled power %g, packed %g", k, cPow[k], pPow[k])
			}
			cs.ExtractLane(k, cVals, nil, nil)
			ps.ExtractLane(k, pVals, nil, nil)
			for i := range cVals {
				if cVals[i] != pVals[i] {
					t.Fatalf("lane %d: node %s mismatch", k, c.Nodes[i].Name)
				}
			}
		}
		models := []string{"zero", "unit", "fanout", "mixed-zero", "wide-span"}
		diffCompiledPackedDelays(t, c, goldenTable(c, models[int(budget)%len(models)]), lanes, 12, 100, int64(budget), cfg)
	})
}
