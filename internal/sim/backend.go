package sim

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// Backend names a lane-parallel simulation backend for the sampling
// phase: the interpreted packed sweep or the compiled word-level
// program. The empty string means the default (compiled, since BENCH_6
// gates its ≥2x duty-cycle advantage in CI; "packed" remains the
// escape hatch).
type Backend string

const (
	// BackendPacked is the interpreted bit-parallel simulator
	// (PackedSession): one levelized CSR sweep per cycle, 64 lanes.
	BackendPacked Backend = "packed"
	// BackendCompiled is the compiled word-level engine
	// (CompiledSession): the circuit is compiled once into straight-line
	// bytecode and replayed, with up to CompiledMaxLanes lanes per step.
	BackendCompiled Backend = "compiled"
)

// Canonical maps the empty backend to the default.
func (b Backend) Canonical() Backend {
	if b == "" {
		return BackendCompiled
	}
	return b
}

// Validate rejects unknown backend names.
func (b Backend) Validate() error {
	switch b.Canonical() {
	case BackendPacked, BackendCompiled:
		return nil
	}
	return fmt.Errorf("sim: unknown backend %q", string(b))
}

// String returns the canonical name.
func (b Backend) String() string { return string(b.Canonical()) }

// ParseBackend resolves a user-supplied backend string ("packed",
// "compiled"; empty means compiled).
func ParseBackend(s string) (Backend, error) {
	b := Backend(s)
	if err := b.Validate(); err != nil {
		return "", err
	}
	return b.Canonical(), nil
}

// Backends lists the valid canonical backends.
func Backends() []Backend { return []Backend{BackendPacked, BackendCompiled} }

// MaxLanesFor returns the widest session the backend supports.
func MaxLanesFor(b Backend) int {
	if b.Canonical() == BackendCompiled {
		return CompiledMaxLanes
	}
	return MaxLanes
}

// LaneSession is the lane-parallel session contract the estimation
// layer drives: both PackedSession and CompiledSession implement it
// with bit-identical per-lane observations, so backend selection can
// never change an estimate — only its speed. See the differential
// battery in this package for the enforcement.
type LaneSession interface {
	// Circuit returns the simulated circuit.
	Circuit() *netlist.Circuit
	// Lanes returns the number of active replication lanes.
	Lanes() int
	// ResetCounters zeroes the cycle-cost counters.
	ResetCounters()
	// CycleCounts returns the per-replication hidden and sampled cycle
	// counts accumulated so far.
	CycleCounts() (hidden, sampled uint64)
	// StepHidden advances every lane one cycle without observing power.
	StepHidden()
	// StepHiddenN advances n cycles with StepHidden.
	StepHiddenN(n int)
	// StepSampled advances one cycle and writes each lane's weighted
	// zero-delay toggle power into powers[:Lanes()].
	StepSampled(weights, powers []float64)
	// StepSampledWith advances one cycle, observing each lane under
	// the delay table dt (general-delay accounting): lane k's power is
	// what EventDriven.Cycle under dt returns for it. The compiled
	// backend observes word-level, the packed one lane by lane.
	StepSampledWith(dt *delay.Table, weights, powers []float64)
	// StepSampledBoth observes each lane under dt while also computing
	// the zero-delay toggle covariate at word level.
	StepSampledBoth(dt *delay.Table, weights []float64, powers, toggles []float64)
	// StepSampledRecord advances one sampled cycle, recording every
	// lane's cycle on stack for word-level observation later, and
	// writes the zero-delay toggle powers into toggles unless it is nil.
	StepSampledRecord(stack *CycleStack, weights, toggles []float64)
	// AccumulateToggles installs dst (len NumNodes, nil to disable) as a
	// per-node transition-count accumulator over all active lanes of
	// every sampled cycle. Counts are integers merged by addition, so
	// they are bit-identical across backends, lane widths and any
	// partition of the replication space.
	AccumulateToggles(dst []uint64)
	// ExtractLane copies lane k's settled state into scalar arrays; any
	// destination may be nil.
	ExtractLane(k int, vals, pins, q []bool)
}

// SessionConfig carries backend tuning options through the estimation
// layer. Every field is result-invariant: it changes how fast a session
// runs, never what it observes. The packed backend ignores it.
type SessionConfig struct {
	// CacheBudget bounds the compiled backend's blocked-execution
	// scratch working set in bytes (0 = default, <0 = disable blocking).
	CacheBudget int
	// Workers > 1 runs the compiled programs' per-level instruction
	// waves across this many goroutines inside one session.
	Workers int
	// MaxSegInsts caps instructions per blocked segment (test hook).
	MaxSegInsts int
}

// NewLaneSession builds a session of the given backend over the
// per-lane sources with the default config. The packed backend accepts
// up to MaxLanes sources, the compiled backend up to CompiledMaxLanes;
// lane k of either is bit-identical to a scalar Session seeded from
// srcs[k].
func NewLaneSession(b Backend, c *netlist.Circuit, srcs []vectors.Source) LaneSession {
	return NewLaneSessionConfig(b, c, srcs, SessionConfig{})
}

// NewLaneSessionConfig is NewLaneSession with backend tuning options.
func NewLaneSessionConfig(b Backend, c *netlist.Circuit, srcs []vectors.Source, cfg SessionConfig) LaneSession {
	if b.Canonical() == BackendCompiled {
		return NewCompiledSessionConfig(c, srcs, CompiledConfig{
			CacheBudget: cfg.CacheBudget,
			Workers:     cfg.Workers,
			MaxSegInsts: cfg.MaxSegInsts,
		})
	}
	return NewPackedSession(c, srcs)
}

// CycleCounts returns the packed session's cost counters, satisfying
// LaneSession.
func (s *PackedSession) CycleCounts() (hidden, sampled uint64) {
	return s.HiddenCycles, s.SampledCycles
}
