package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func miniCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("mini")
	a, _ := c.AddNode("A", logic.Input)
	g1, _ := c.AddNode("G1", logic.Not, a) // fanout 2
	g2, _ := c.AddNode("G2", logic.And, g1, a)
	g3, _ := c.AddNode("G3", logic.Or, g1, g2)
	q, _ := c.AddNode("Q", logic.DFF, g3)
	_ = q
	_ = c.MarkOutput(g3)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultSupply(t *testing.T) {
	s := DefaultSupply()
	if s.VDD != 5.0 || s.ClockPeriod != 50e-9 {
		t.Fatalf("default supply = %+v, want 5V/50ns", s)
	}
	if f := s.Frequency(); math.Abs(f-20e6) > 1 {
		t.Fatalf("frequency = %g, want 20 MHz", f)
	}
}

func TestNodeCapStructure(t *testing.T) {
	c := miniCircuit(t)
	cm := CapModel{Base: 30e-15, PerFanout: 10e-15}
	// G1 drives G2 and G3: C = 30 + 2*10 = 50 fF.
	if got := cm.NodeCap(c, c.Lookup("G1")); math.Abs(got-50e-15) > 1e-20 {
		t.Errorf("G1 cap = %g, want 50 fF", got)
	}
	// Primary input excluded by default.
	if got := cm.NodeCap(c, c.Lookup("A")); got != 0 {
		t.Errorf("input cap = %g, want 0", got)
	}
	cm.IncludeInputs = true
	if got := cm.NodeCap(c, c.Lookup("A")); got == 0 {
		t.Errorf("input cap = 0 with IncludeInputs")
	}
	// The latch (a memory element) is included: Eq. 1 covers cells =
	// gates and memory elements.
	if got := cm.NodeCap(c, c.Lookup("Q")); got <= 0 {
		t.Errorf("DFF cap = %g, want > 0", got)
	}
}

func TestWeightsEquationOne(t *testing.T) {
	// One transition at node i must contribute C_i * VDD^2/(2T) watts.
	c := miniCircuit(t)
	m := NewModel(c, DefaultCapModel(), DefaultSupply())
	w := m.Weights()
	k := 5.0 * 5.0 / (2 * 50e-9)
	for i := range w {
		want := m.Caps[i] * k
		if math.Abs(w[i]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("weight[%d] = %g, want %g", i, w[i], want)
		}
	}
}

func TestEnergyPerTransition(t *testing.T) {
	c := miniCircuit(t)
	m := NewModel(c, CapModel{Base: 40e-15}, Supply{VDD: 5, ClockPeriod: 50e-9})
	want := 40e-15 * 25 / 2
	if got := m.EnergyPerTransition(c.Lookup("G2")); math.Abs(got-want) > 1e-25 {
		t.Fatalf("energy = %g, want %g", got, want)
	}
}

func TestFormatWatts(t *testing.T) {
	cases := map[float64]string{
		2.5:     "W",
		3.2e-3:  "mW",
		4.7e-6:  "uW",
		8.8e-10: "nW",
	}
	for v, unit := range cases {
		if s := FormatWatts(v); !strings.HasSuffix(s, unit) {
			t.Errorf("FormatWatts(%g) = %q, want suffix %q", v, s, unit)
		}
	}
}

func TestPowerModeValidateAndParse(t *testing.T) {
	for _, m := range []PowerMode{"", ModeGeneralDelay, ModeZeroDelay} {
		if err := m.Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", m, err)
		}
	}
	if err := PowerMode("half-delay").Validate(); err == nil {
		t.Error("bad mode accepted")
	}
	if PowerMode("").Canonical() != ModeGeneralDelay || PowerMode("").String() != "general-delay" {
		t.Error("zero value is not canonical general-delay")
	}
	if !ModeZeroDelay.IsZeroDelay() || ModeGeneralDelay.IsZeroDelay() {
		t.Error("IsZeroDelay wrong")
	}
	cases := map[string]PowerMode{
		"": ModeGeneralDelay, "general": ModeGeneralDelay, "general-delay": ModeGeneralDelay,
		"zero": ModeZeroDelay, "zero-delay": ModeZeroDelay,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus")
	}
	if n := len(Modes()); n != 2 {
		t.Errorf("Modes() has %d entries", n)
	}
}
