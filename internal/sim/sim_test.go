package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// xorChain builds IN -> (delayed path) XOR (direct path) so that an input
// edge produces a glitch at the XOR under unequal path delays:
//
//	Y = XOR(B2, A) with B2 = NOT(NOT(A))
//
// Functionally Y is always 0, so zero-delay simulation sees no
// transitions at Y; event-driven simulation with unit delays sees a
// pulse (two transitions) per input edge.
func xorChain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("xorchain")
	a, _ := c.AddNode("A", logic.Input)
	b1, _ := c.AddNode("B1", logic.Not, a)
	b2, _ := c.AddNode("B2", logic.Not, b1)
	y, _ := c.AddNode("Y", logic.Xor, b2, a)
	_ = c.MarkOutput(y)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func unitWeights(c *netlist.Circuit) []float64 {
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestZeroDelayS27TruthTable(t *testing.T) {
	// s27 next-state/output ground truth computed by hand from the
	// netlist: with all inputs 0 and state (G5,G6,G7) = (0,0,0):
	//   G14=NOT(0)=1, G12=NOR(0,0)=1, G13=NOR(0,1)=0, G8=AND(1,0)=0,
	//   G15=OR(1,0)=1, G16=OR(0,0)=0, G9=NAND(0,1)=1, G11=NOR(0,1)=0,
	//   G10=NOR(1,0)=0, G17=NOT(0)=1.
	c := bench89.S27()
	zd := NewZeroDelay(c)
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, 4)
	q := make([]bool, 3)
	zd.Settle(vals, pins, q)

	get := func(name string) bool { return vals[c.Lookup(name)] }
	checks := map[string]bool{
		"G14": true, "G12": true, "G13": false, "G8": false,
		"G15": true, "G16": false, "G9": true, "G11": false,
		"G10": false, "G17": true,
	}
	for name, want := range checks {
		if got := get(name); got != want {
			t.Errorf("s27 reset-settle %s = %v, want %v", name, got, want)
		}
	}
	// Next state: (G10, G11, G13) = (0,0,0).
	nq := make([]bool, 3)
	zd.NextState(vals, nq)
	if nq[0] || nq[1] || nq[2] {
		t.Errorf("s27 next state from reset = %v, want all false", nq)
	}
	out := make([]bool, 1)
	zd.Outputs(vals, out)
	if !out[0] {
		t.Errorf("s27 output G17 = %v, want true", out[0])
	}
}

func TestEventDrivenSettlesToZeroDelayValues(t *testing.T) {
	// Property: after an event-driven cycle, node values equal a fresh
	// zero-delay settle of the same (pins, state). Checked across many
	// random cycles on several circuits and delay models.
	circuits := []*netlist.Circuit{bench89.S27(), bench89.MustGet("s298"), bench89.MustGet("s386")}
	models := []delay.Model{delay.Unit{}, delay.DefaultFanoutLoaded()}
	for _, c := range circuits {
		for _, dm := range models {
			rng := rand.New(rand.NewSource(42))
			zd := NewZeroDelay(c)
			ed := NewEventDriven(c, delay.BuildTable(c, dm))
			w := unitWeights(c)

			vals := make([]bool, c.NumNodes())
			ref := make([]bool, c.NumNodes())
			pins := make([]bool, len(c.Inputs))
			q := make([]bool, len(c.Latches))
			zd.Settle(vals, pins, q)

			for cycle := 0; cycle < 200; cycle++ {
				for i := range pins {
					pins[i] = rng.Intn(2) == 1
				}
				for i := range q {
					q[i] = rng.Intn(2) == 1
				}
				ed.Cycle(vals, pins, q, w, nil)
				zd.Settle(ref, pins, q)
				for i := range vals {
					if vals[i] != ref[i] {
						t.Fatalf("%s/%s cycle %d: node %s settled to %v, zero-delay says %v",
							c.Name, dm.Name(), cycle, c.Nodes[i].Name, vals[i], ref[i])
					}
				}
			}
		}
	}
}

func TestEventDrivenCountsGlitches(t *testing.T) {
	c := xorChain(t)
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.Unit{}))
	w := unitWeights(c)
	y := c.Lookup("Y")

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)

	// The XOR must glitch: 0 -> 1 (direct path) -> 0 (delayed path).
	if counts[y] != 2 {
		t.Fatalf("XOR glitch transitions = %d, want 2", counts[y])
	}
	if vals[y] != false {
		t.Fatalf("XOR settled to %v, want false", vals[y])
	}
}

func TestInertialFilteringSuppressesShortPulse(t *testing.T) {
	// Same circuit, but the XOR is slow (fanout-loaded base much larger
	// than the inverter-chain skew): the 2-unit input skew pulse is
	// shorter than the XOR delay, so inertial filtering removes it.
	c := xorChain(t)
	tab := delay.BuildTable(c, delay.Unit{})
	y := c.Lookup("Y")
	tab.Delays[y] = 100 // pulse width is 2 (two NOT delays) << 100
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, tab)
	w := unitWeights(c)

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)
	if counts[y] != 0 {
		t.Fatalf("slow XOR transitions = %d, want 0 (inertial filtering)", counts[y])
	}
}

func TestZeroDelayModelSeesNoGlitches(t *testing.T) {
	// Under the all-zero delay model the event simulator must count
	// exactly the functional transitions.
	c := xorChain(t)
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.Zero{}))
	w := unitWeights(c)
	y := c.Lookup("Y")

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)
	if counts[y] != 0 {
		t.Fatalf("zero-delay XOR transitions = %d, want 0", counts[y])
	}
}

func TestEventDrivenWeightedSumMatchesCounts(t *testing.T) {
	c := bench89.MustGet("s298")
	rng := rand.New(rand.NewSource(9))
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()))
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = rng.Float64()
	}
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, len(c.Inputs))
	q := make([]bool, len(c.Latches))
	zd.Settle(vals, pins, q)
	for cycle := 0; cycle < 50; cycle++ {
		for i := range pins {
			pins[i] = rng.Intn(2) == 1
		}
		for i := range q {
			q[i] = rng.Intn(2) == 1
		}
		counts := make([]uint64, c.NumNodes())
		sum := ed.Cycle(vals, pins, q, w, counts)
		var want float64
		for i, n := range counts {
			want += w[i] * float64(n)
		}
		if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cycle %d: weighted sum %g, counts say %g", cycle, sum, want)
		}
	}
}

func TestEventDrivenDeterministic(t *testing.T) {
	c := bench89.MustGet("s344")
	run := func() float64 {
		s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
			vectors.NewIID(len(c.Inputs), 0.5, 77), unitWeights(c))
		total := 0.0
		for i := 0; i < 200; i++ {
			total += s.StepSampled(nil)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverged: %g vs %g", a, b)
	}
}

func TestSessionInterleavingInvariant(t *testing.T) {
	// Interleaving hidden and sampled steps must visit the same state
	// trajectory as sampling every cycle (the FSM path depends only on
	// the input stream, not on which simulator advances it).
	c := bench89.MustGet("s386")
	tab := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	w := unitWeights(c)

	sA := NewSession(c, tab, vectors.NewIID(len(c.Inputs), 0.5, 123), w)
	sB := NewSession(c, tab, vectors.NewIID(len(c.Inputs), 0.5, 123), w)

	qA := make([]bool, len(c.Latches))
	qB := make([]bool, len(c.Latches))
	for step := 0; step < 300; step++ {
		if step%3 == 0 {
			sA.StepSampled(nil)
		} else {
			sA.StepHidden()
		}
		sB.StepSampled(nil)
		sA.State(qA)
		sB.State(qB)
		for i := range qA {
			if qA[i] != qB[i] {
				t.Fatalf("step %d: latch %d diverged between hidden and sampled paths", step, i)
			}
		}
	}
}

func TestSessionCycleCounters(t *testing.T) {
	c := bench89.S27()
	s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(4, 0.5, 1), unitWeights(c))
	s.StepHiddenN(10)
	s.StepSampled(nil)
	s.StepSampled(nil)
	if s.HiddenCycles != 10 || s.SampledCycles != 2 {
		t.Fatalf("counters = %d/%d, want 10/2", s.HiddenCycles, s.SampledCycles)
	}
	s.ResetCounters()
	if s.HiddenCycles != 0 || s.SampledCycles != 0 {
		t.Fatal("ResetCounters did not clear")
	}
}

func TestSessionReset(t *testing.T) {
	c := bench89.MustGet("s298")
	s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(len(c.Inputs), 0.5, 5), unitWeights(c))
	s.StepHiddenN(50)
	s.Reset()
	q := make([]bool, len(c.Latches))
	s.State(q)
	for i, b := range q {
		if b {
			t.Fatalf("latch %d not reset", i)
		}
	}
}

func TestSessionSetState(t *testing.T) {
	c := bench89.S27()
	s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(4, 0.5, 1), unitWeights(c))
	want := []bool{true, false, true}
	s.SetState(want)
	got := make([]bool, 3)
	s.State(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SetState not applied: %v vs %v", got, want)
		}
	}
}

func TestSettleTimeWithinClock(t *testing.T) {
	// All benchmark circuits must settle within the paper's 50 ns clock
	// under the default delay model.
	for _, name := range []string{"s27", "s298", "s1494"} {
		c := bench89.MustGet(name)
		s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
			vectors.NewIID(len(c.Inputs), 0.5, 3), unitWeights(c))
		var worst delay.Picoseconds
		for i := 0; i < 100; i++ {
			s.StepSampled(nil)
			if st := s.SettleTime(); st > worst {
				worst = st
			}
		}
		if worst > 50_000 {
			t.Errorf("%s settle time %d ps exceeds 50 ns clock", name, worst)
		}
	}
}

func TestSessionPanicsOnWidthMismatch(t *testing.T) {
	c := bench89.S27()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched source width")
		}
	}()
	NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(3, 0.5, 1), unitWeights(c)) // s27 has 4 inputs
}

func TestConstantNodesNeverTransition(t *testing.T) {
	text := "INPUT(A)\nC1 = CONST1()\nG = AND(A, C1)\n"
	c, err := netlist.ParseBenchString("const", text)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, delay.BuildTable(c, delay.Unit{}),
		vectors.NewIID(1, 0.5, 11), unitWeights(c))
	counts := make([]uint64, c.NumNodes())
	for i := 0; i < 100; i++ {
		s.StepSampled(counts)
	}
	if n := counts[c.Lookup("C1")]; n != 0 {
		t.Fatalf("constant node transitioned %d times", n)
	}
}

// mixedZeroDelays is a custom delay table mixing 0-ps and non-zero gate
// delays: every third combinational gate switches instantly, the rest
// keep their fanout-loaded delay. Zero-delay gates schedule into the
// time being drained, so it pins same-time insertion order.
func mixedZeroDelays(c *netlist.Circuit) *delay.Table {
	t := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	t.ModelName = "mixed-zero"
	for i := range t.Delays {
		if c.Nodes[i].Kind.IsCombinational() && i%3 == 0 {
			t.Delays[i] = 0
		}
	}
	return t
}

// wideSpanDelays is a custom delay table whose max/gcd delay ratio is
// far beyond any time-queue bucket bound: most gates take 1 ps, every
// seventh takes a node-dependent delay of up to ~2 µs, so events are
// spread over a very long time axis at 1-ps resolution.
func wideSpanDelays(c *netlist.Circuit) *delay.Table {
	t := delay.BuildTable(c, delay.Unit{})
	t.ModelName = "wide-span"
	for i := range t.Delays {
		if c.Nodes[i].Kind.IsCombinational() && i%7 == 0 {
			t.Delays[i] = delay.Picoseconds(1_000_000 + 997*i)
		}
	}
	return t
}

// eventDrivenGolden pins the event-driven simulator's observable output
// over a random-stimulus run: FNV-1a digests of the per-cycle power
// bits, of (LastEvents, LastSettleTime) per cycle, of the final count
// vector, and of the observer's (id, t, v) commit sequence.
type eventDrivenGolden struct {
	circuit string
	model   string
	cycles  int
	power   uint64
	events  uint64
	counts  uint64
	commits uint64
}

// Captured from the canonical engine (each gate evaluated once per
// instant after its fanins commit; power summed after the cycle in
// node-index order).
var eventDrivenGoldens = []eventDrivenGolden{
	{"s27", "zero", 1000, 0xc47789bfdc10e228, 0xc792ebfb739a942a, 0xd4f41fd6555e7b2f, 0x33472a53a71a2411},
	{"s27", "unit", 1000, 0xbd486b158c979e05, 0xf5b041eccba9ab1b, 0xf6b2614d1ec24c4c, 0x6155d6692e4b0be6},
	{"s27", "fanout", 1000, 0x8db76c2fc29ed09f, 0x811414163bba9f67, 0x646e28a46d475ac1, 0x87b6fd3e7ff35430},
	{"s27", "mixed-zero", 1000, 0x19428e09bdfd4f6b, 0x4bd979f64beb8be1, 0xf33e88905401b838, 0xc1f4537b928392aa},
	{"s27", "wide-span", 1000, 0x22af0a993fd65c72, 0x629215b32bfca1e3, 0x70f23d36a4b46766, 0x5c86cfcbad35f179},
	{"s298", "zero", 300, 0x671ffcf7f88e6a8a, 0xc3673a5f88f3b8fe, 0x90f0fc52cac071c0, 0x1f7fbe483a20c479},
	{"s298", "unit", 300, 0x5217cfb4ed04f2ba, 0x9bbf636cace948df, 0xcf58874371cf55f3, 0xc916bb982eb87ca},
	{"s298", "fanout", 300, 0x20cfb6f5f6c0ab9, 0x45135cbbb2fed53e, 0x607ce519f568be37, 0x8aa92d1930f2b8fe},
	{"s298", "mixed-zero", 300, 0xd5d46c3efb20d8cd, 0x6f8d1ba4bef2d26d, 0xc42ee70b190a6333, 0xccc0d925c6b85155},
	{"s298", "wide-span", 300, 0xbb328902678de6b7, 0xc8b5f7c58dced598, 0x42d19d0cb5413721, 0x15d3f0a9d80927ce},
	{"s1494", "zero", 300, 0x61b1aef09993203e, 0xd2eb8e7c8379b1af, 0x47eb8d018a8c420a, 0x42533584eaad1456},
	{"s1494", "unit", 300, 0x52a60f0edfd93541, 0xa8c9c5eb6bd0dbd8, 0xd929d289f23e1ec4, 0xe983d3a22ae14b9a},
	{"s1494", "fanout", 300, 0x6adc40685e4a31eb, 0x40c9d62b201b5056, 0x78491578ea5cfb35, 0xd280a4afef98ee46},
	{"s1494", "mixed-zero", 300, 0x8e32eb3dfdb5920c, 0xb4f71d326ca1aa74, 0xd99330ed38339388, 0x789669663a5b8e07},
	{"s1494", "wide-span", 300, 0x7887c24a297aad1e, 0x5e941f39b24e49a3, 0xf2298ae3ed219315, 0x25ca17a12c35fc73},
	{"scaled5", "zero", 300, 0xf0ca6c5a69f59e93, 0x6754eb542857f514, 0x5c7872162172fe94, 0x34fdf8e25b245746},
	{"scaled5", "unit", 300, 0x7dbec5579b17d05e, 0x35870e3c476b9dd3, 0xd5f07c6c9c47d1fc, 0x16eea769e496a396},
	{"scaled5", "fanout", 300, 0x707055a9489d241f, 0x660a19d764bfc569, 0x75e00294a081ad64, 0xa8bb6544e3326442},
	{"scaled5", "mixed-zero", 300, 0xb6b2d13e8282d91f, 0x676ef84becfd4b20, 0xe8a1f274f6499cd8, 0x53eb569d69fa3caa},
	{"scaled5", "wide-span", 300, 0xfc4f0f2f94530dcd, 0x492218a6eea47dc2, 0x5e6484424dc6bebc, 0x8ad9b89d3c414a6a},
}

func goldenCircuit(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	if name == "scaled5" {
		c, err := bench89.Generate(bench89.ScaledSignature(5, 800))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return bench89.MustGet(name)
}

func goldenTable(c *netlist.Circuit, model string) *delay.Table {
	switch model {
	case "zero":
		return delay.BuildTable(c, delay.Zero{})
	case "unit":
		return delay.BuildTable(c, delay.Unit{})
	case "fanout":
		return delay.BuildTable(c, delay.DefaultFanoutLoaded())
	case "mixed-zero":
		return mixedZeroDelays(c)
	case "wide-span":
		return wideSpanDelays(c)
	}
	panic("unknown golden delay model " + model)
}

// runEventDrivenGolden drives one simulator with counts and observer
// attached and a twin without either, from the same random (pins,
// state) stream; the twin's powers must match the observed run's bit
// for bit (the two commit-loop variants).
func runEventDrivenGolden(t *testing.T, c *netlist.Circuit, dt *delay.Table, cycles int) eventDrivenGolden {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(c.Nodes))))
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = rng.Float64()
	}
	ed := NewEventDriven(c, dt)
	twin := NewEventDriven(c, dt)
	commits := fnv.New64a()
	var rec [17]byte
	ed.SetObserver(func(id netlist.NodeID, at delay.Picoseconds, v bool) {
		binary.LittleEndian.PutUint32(rec[0:], uint32(id))
		binary.LittleEndian.PutUint64(rec[4:], uint64(at))
		rec[12] = 0
		if v {
			rec[12] = 1
		}
		commits.Write(rec[:13])
	})
	zd := NewZeroDelay(c)
	vals := make([]bool, c.NumNodes())
	tvals := make([]bool, c.NumNodes())
	pins := make([]bool, len(c.Inputs))
	q := make([]bool, len(c.Latches))
	zd.Settle(vals, pins, q)
	zd.Settle(tvals, pins, q)
	counts := make([]uint64, c.NumNodes())
	power, events := fnv.New64a(), fnv.New64a()
	for cycle := 0; cycle < cycles; cycle++ {
		for i := range pins {
			pins[i] = rng.Intn(2) == 1
		}
		for i := range q {
			q[i] = rng.Intn(2) == 1
		}
		p := ed.Cycle(vals, pins, q, w, counts)
		if tp := twin.Cycle(tvals, pins, q, w, nil); math.Float64bits(tp) != math.Float64bits(p) {
			t.Fatalf("%s/%s cycle %d: uncounted power %v, counted %v", c.Name, dt.ModelName, cycle, tp, p)
		}
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(p))
		power.Write(rec[:8])
		binary.LittleEndian.PutUint64(rec[0:], ed.LastEvents)
		binary.LittleEndian.PutUint64(rec[8:], uint64(ed.LastSettleTime))
		events.Write(rec[:16])
	}
	cs := fnv.New64a()
	for _, n := range counts {
		binary.LittleEndian.PutUint64(rec[0:], n)
		cs.Write(rec[:8])
	}
	return eventDrivenGolden{power: power.Sum64(), events: events.Sum64(), counts: cs.Sum64(), commits: commits.Sum64()}
}

// TestEventDrivenGoldens pins the event-driven engine bit for bit — per-
// cycle power, event counts, settle times, count vectors and the exact
// commit order — across circuits and delay models, including a table
// mixing 0-ps and non-zero delays and one whose max/gcd delay ratio
// forces wide time buckets. Any change to the event queue must keep
// every digest.
func TestEventDrivenGoldens(t *testing.T) {
	for _, g := range eventDrivenGoldens {
		c := goldenCircuit(t, g.circuit)
		got := runEventDrivenGolden(t, c, goldenTable(c, g.model), g.cycles)
		got.circuit, got.model, got.cycles = g.circuit, g.model, g.cycles
		if got != g {
			t.Errorf("%s/%s: got {power %#x events %#x counts %#x commits %#x}, want {%#x %#x %#x %#x}",
				g.circuit, g.model, got.power, got.events, got.counts, got.commits,
				g.power, g.events, g.counts, g.commits)
		}
	}
}
