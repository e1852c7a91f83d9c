package power

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Supply describes the electrical operating point. The paper's
// experiments use 5 V and 20 MHz.
type Supply struct {
	VDD         float64 // volts
	ClockPeriod float64 // seconds
}

// DefaultSupply returns the paper's operating point: 5 V, 20 MHz.
func DefaultSupply() Supply {
	return Supply{VDD: 5.0, ClockPeriod: 50e-9}
}

// Frequency returns the clock frequency in Hz.
func (s Supply) Frequency() float64 { return 1.0 / s.ClockPeriod }

// CapModel assigns a load capacitance to each node from its structure:
// C = Base + PerFanout * fanout. Primary inputs get zero weight by
// default because their transitions are charged to the external driver,
// not the circuit under analysis.
type CapModel struct {
	Base          float64 // farads, intrinsic output load
	PerFanout     float64 // farads per fanout connection
	IncludeInputs bool    // count primary-input transitions too
}

// DefaultCapModel returns the coefficients used by the benchmark
// experiments: 30 fF intrinsic + 10 fF per fanout. With the paper's 5 V /
// 20 MHz operating point these place the ISCAS89-sized circuits in the
// same sub-mW to few-mW decade as Table 1.
func DefaultCapModel() CapModel {
	return CapModel{Base: 30e-15, PerFanout: 10e-15}
}

// NodeCap returns the load capacitance of node i.
func (m CapModel) NodeCap(c *netlist.Circuit, id netlist.NodeID) float64 {
	nd := &c.Nodes[id]
	if nd.Kind == logic.Input && !m.IncludeInputs {
		return 0
	}
	if nd.Kind == logic.Const0 || nd.Kind == logic.Const1 {
		return 0 // constants never switch
	}
	return m.Base + m.PerFanout*float64(len(nd.Fanout))
}

// LeakModel assigns a static (leakage) power to each node from its
// structure: P_leak = GateBase + PerFanin * fanin, in watts. Leakage is
// state-independent here — it accrues whether or not the node switches —
// so total static power is a plain sum over the circuit, reported
// alongside the estimated dynamic power. Primary inputs and constant
// drivers are pads, not transistor stacks, and leak nothing.
type LeakModel struct {
	GateBase float64 // watts, per gate or latch output stage
	PerFanin float64 // watts per fanin connection (stacked devices)
}

// DefaultLeakModel returns leakage coefficients matching the paper's
// technology era (5 V, multi-micron CMOS): 50 pW per gate plus 10 pW
// per fanin — subthreshold leakage orders of magnitude below switching
// power, as it was before deep submicron.
func DefaultLeakModel() LeakModel {
	return LeakModel{GateBase: 50e-12, PerFanin: 10e-12}
}

// NodeLeak returns the static power of node i in watts.
func (lm LeakModel) NodeLeak(c *netlist.Circuit, id netlist.NodeID) float64 {
	nd := &c.Nodes[id]
	switch nd.Kind {
	case logic.Input, logic.Const0, logic.Const1:
		return 0
	}
	return lm.GateBase + lm.PerFanin*float64(len(nd.Fanin))
}

// Model couples a supply with per-node capacitances and leakage weights
// for one circuit.
type Model struct {
	Supply Supply
	Caps   []float64 // farads, indexed by NodeID
	Leak   []float64 // watts of static power, indexed by NodeID
}

// NewModel precomputes the capacitance and leakage of every node of a
// frozen circuit, using the default leakage coefficients.
func NewModel(c *netlist.Circuit, cm CapModel, s Supply) *Model {
	return NewModelLeak(c, cm, DefaultLeakModel(), s)
}

// NewModelLeak is NewModel with explicit leakage coefficients.
func NewModelLeak(c *netlist.Circuit, cm CapModel, lm LeakModel, s Supply) *Model {
	m := &Model{
		Supply: s,
		Caps:   make([]float64, len(c.Nodes)),
		Leak:   make([]float64, len(c.Nodes)),
	}
	for i := range c.Nodes {
		m.Caps[i] = cm.NodeCap(c, netlist.NodeID(i))
		m.Leak[i] = lm.NodeLeak(c, netlist.NodeID(i))
	}
	return m
}

// TotalLeakage returns the circuit's static power: the sum of every
// node's leakage weight, in watts.
func (m *Model) TotalLeakage() float64 {
	var sum float64
	for _, l := range m.Leak {
		sum += l
	}
	return sum
}

// Weights returns the per-transition power contribution of each node,
//
//	w_i = C_i * VDD^2 / (2T),
//
// so that a cycle's power is the plain weighted transition count. This is
// the array the event-driven simulator consumes.
func (m *Model) Weights() []float64 {
	k := m.Supply.VDD * m.Supply.VDD / (2 * m.Supply.ClockPeriod)
	w := make([]float64, len(m.Caps))
	for i, c := range m.Caps {
		w[i] = c * k
	}
	return w
}

// EnergyPerTransition returns the switching energy of one transition at
// node i: C_i * VDD^2 / 2, in joules.
func (m *Model) EnergyPerTransition(id netlist.NodeID) float64 {
	return m.Caps[id] * m.Supply.VDD * m.Supply.VDD / 2
}

// FormatWatts renders a power value with an engineering unit prefix.
func FormatWatts(w float64) string {
	switch {
	case w >= 1:
		return fmt.Sprintf("%.3f W", w)
	case w >= 1e-3:
		return fmt.Sprintf("%.3f mW", w*1e3)
	case w >= 1e-6:
		return fmt.Sprintf("%.3f uW", w*1e6)
	default:
		return fmt.Sprintf("%.3f nW", w*1e9)
	}
}
