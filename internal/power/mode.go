package power

import "fmt"

// PowerMode names the delay-model scenario under which transitions are
// observed on sampled cycles. It is the user-visible axis that selects a
// power engine (see internal/sim): general-delay observation counts
// every transition including glitches with the event-driven simulator;
// zero-delay observation counts only functional (settled-value)
// transitions and admits the word-parallel zero-delay diff on the
// compiled lanes, which makes sampled cycles about as cheap as hidden
// ones.
//
// The zero value ("") means ModeGeneralDelay, the paper's configuration,
// so existing call sites keep their behaviour without change.
type PowerMode string

const (
	// ModeGeneralDelay observes sampled cycles with the event-driven
	// general-delay simulator: functional transitions and glitches alike
	// (the paper's Eq. 1 accounting). This is the default.
	ModeGeneralDelay PowerMode = "general-delay"
	// ModeZeroDelay observes sampled cycles under the zero-delay model:
	// each node contributes at most one transition per cycle (old settled
	// value XOR new settled value). Glitch power is excluded by
	// construction, and the observation is bit-packable across 64
	// replication lanes.
	ModeZeroDelay PowerMode = "zero-delay"
)

// Modes lists the valid canonical power modes.
func Modes() []PowerMode { return []PowerMode{ModeGeneralDelay, ModeZeroDelay} }

// Canonical maps the zero value to ModeGeneralDelay and returns every
// other value unchanged.
func (m PowerMode) Canonical() PowerMode {
	if m == "" {
		return ModeGeneralDelay
	}
	return m
}

// IsZeroDelay reports whether the mode selects zero-delay observation.
func (m PowerMode) IsZeroDelay() bool { return m == ModeZeroDelay }

// String implements fmt.Stringer; the zero value prints as its canonical
// form.
func (m PowerMode) String() string { return string(m.Canonical()) }

// Validate rejects anything but "", "general-delay" and "zero-delay".
// API layers that accept modes verbatim (the service's job schema) rely
// on this to fail requests before a worker picks them up.
func (m PowerMode) Validate() error {
	switch m {
	case "", ModeGeneralDelay, ModeZeroDelay:
		return nil
	}
	return fmt.Errorf("power: unknown power mode %q (want %q or %q)",
		string(m), ModeGeneralDelay, ModeZeroDelay)
}

// ParseMode resolves a user-supplied mode string, accepting the short
// aliases "general" and "zero" alongside the canonical names. The empty
// string parses to ModeGeneralDelay.
func ParseMode(s string) (PowerMode, error) {
	switch s {
	case "", "general", string(ModeGeneralDelay):
		return ModeGeneralDelay, nil
	case "zero", string(ModeZeroDelay):
		return ModeZeroDelay, nil
	}
	return "", fmt.Errorf("power: unknown power mode %q (want %q or %q)",
		s, ModeGeneralDelay, ModeZeroDelay)
}
