package sim

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/netlist"
)

// FuzzCompile feeds arbitrary ISCAS89 ".bench" text through the parser
// and, whenever a circuit results, through the compiler and a mixed
// hidden/sampled trajectory of the differential battery, asserting that
// every compiled lane agrees with its scalar session and that nothing
// panics on degenerate shapes — constant cones, buffer chains, latches
// fed by latches, unused inputs. The budget byte steers the blocked /
// level-parallel configuration, so segmentation and spill analysis are
// fuzzed on the same degenerate shapes: 0 = plain, 1 = one instruction
// per segment, 2 = blocking disabled, 3 = two workers, otherwise a tiny
// byte-scaled cache budget. It also picks the delay table (zero, unit,
// fanout-loaded, mixed zero/non-zero, wide span) the battery's
// general-delay steps observe under, so the word-level engine is
// checked against the scalar one lane by lane: powers, counts and
// settled rows.
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
		models := []string{"zero", "unit", "fanout", "mixed-zero", "wide-span"}
		diffCompiledScalarDelays(t, c, goldenTable(c, models[int(budget)%len(models)]), 3, 12, 100, int64(budget), cfg)
	})
}
