package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vectors"
)

// EngineBenchRow compares the compiled lane engine against the scalar
// reference simulators on one circuit, phase by phase. Every figure
// counts per-replication clock cycles per second, so a lane session's
// figure already includes its lane fan-out:
//
//   - hidden: StepHidden on the compiled Step program vs the scalar
//     levelized zero-delay settle;
//   - sampled: the compiled zero-delay sampled step (word-level toggle
//     diff) vs a scalar event-driven sampled cycle — the cost ratio
//     between the zero-delay mode's sampled phase and the paper's
//     general-delay one;
//   - duty: the estimation duty cycle — the cycle mix one replication
//     sweep of the paper's two-phase scheme runs (warmup hidden cycles,
//     then samples taken every `interval` cycles) — with zero-delay
//     sampled cycles on both sides.
type EngineBenchRow struct {
	Name     string `json:"circuit"`
	Gates    int    `json:"gates"`
	Lanes    int    `json:"lanes"`
	Warmup   int    `json:"warmup_cycles"`
	Samples  int    `json:"samples_per_sweep"`
	Interval int    `json:"sampling_interval"`

	ScalarHiddenCPS    float64 `json:"scalar_hidden_cycles_per_sec"`
	CompiledHiddenCPS  float64 `json:"compiled_hidden_cycles_per_sec"`
	HiddenSpeedup      float64 `json:"hidden_speedup"`
	ScalarSampledCPS   float64 `json:"scalar_event_driven_sampled_cycles_per_sec"`
	CompiledSampledCPS float64 `json:"compiled_zero_delay_sampled_cycles_per_sec"`
	SampledSpeedup     float64 `json:"sampled_speedup"`
	ScalarDutyCPS      float64 `json:"scalar_duty_cycles_per_sec"`
	CompiledDutyCPS    float64 `json:"compiled_duty_cycles_per_sec"`
	DutySpeedup        float64 `json:"duty_speedup"`
}

// engineStepper is the stepping surface one timed side of EngineBench
// drives: a compiled lane session or a scalar session.
type engineStepper struct {
	hidden  func(n int)
	sampled func()
}

// timeEngine times one side over the given budgets and returns its
// hidden, sampled and duty wall times. Each phase runs on a fresh
// stepper after a short untimed warm pass; the sampled phase on one
// from mkSampled.
func timeEngine(mk, mkSampled func() engineStepper, warmup, samples, interval, sweeps int) (hiddenSec, sampledSec, dutySec float64) {
	s := mk()
	s.hidden(64) // touch everything once before timing
	t0 := time.Now()
	s.hidden(sweeps * (warmup + samples*interval))
	hiddenSec = time.Since(t0).Seconds()

	s = mkSampled()
	for i := 0; i < 16; i++ {
		s.sampled()
	}
	t0 = time.Now()
	for i := 0; i < sweeps*samples; i++ {
		s.sampled()
	}
	sampledSec = time.Since(t0).Seconds()

	s = mk()
	sweep := func() {
		s.hidden(warmup)
		for i := 0; i < samples; i++ {
			s.hidden(interval - 1)
			s.sampled()
		}
	}
	sweep() // warm pass
	t0 = time.Now()
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	dutySec = time.Since(t0).Seconds()
	return hiddenSec, sampledSec, dutySec
}

// EngineThroughput measures compiled-vs-scalar throughput for the given
// circuits. Each duty-cycle sweep runs `warmup` hidden cycles followed
// by `samples` samples spaced `interval` cycles apart (interval-1
// hidden cycles then one sampled cycle), matching the estimator's
// per-replication cycle mix; `sweeps` sweeps are timed, and the hidden
// and sampled phases are timed in isolation over the same cycle
// budgets. lanes is the compiled session width; the scalar side runs
// one replication.
func EngineThroughput(circuits []string, warmup, samples, interval, sweeps, lanes int, seed int64) ([]EngineBenchRow, error) {
	if warmup < 1 || samples < 1 || interval < 1 || sweeps < 1 {
		return nil, fmt.Errorf("experiments: bad engine bench config (warmup=%d samples=%d interval=%d sweeps=%d)",
			warmup, samples, interval, sweeps)
	}
	if lanes < 1 || lanes > sim.CompiledMaxLanes {
		return nil, fmt.Errorf("experiments: engine bench lanes %d out of range [1, %d]", lanes, sim.CompiledMaxLanes)
	}
	perSweep := warmup + samples*interval
	rows := make([]EngineBenchRow, 0, len(circuits))
	for _, name := range circuits {
		c, err := bench89.Get(name)
		if err != nil {
			return nil, err
		}
		tb := core.DefaultTestbench(c)
		weights := tb.Weights()
		width := len(c.Inputs)

		compiled := func() engineStepper {
			srcs := make([]vectors.Source, lanes)
			for k := range srcs {
				srcs[k] = vectors.NewIID(width, 0.5, seed+1+int64(k))
			}
			s := sim.NewCompiledSession(c, srcs)
			powers := make([]float64, lanes)
			return engineStepper{s.StepHiddenN, func() { s.StepSampled(weights, powers) }}
		}
		// The scalar sampled phase is event-driven; hidden and duty
		// cycles observe with the zero-delay toggle engine, the scalar
		// semantics of the compiled sampled step.
		scalar := func(engine sim.PowerEngine) func() engineStepper {
			return func() engineStepper {
				s := sim.NewSessionEngine(c, engine, vectors.NewIID(width, 0.5, seed), weights)
				return engineStepper{s.StepHiddenN, func() { s.StepSampled(nil) }}
			}
		}
		cH, cS, cD := timeEngine(compiled, compiled, warmup, samples, interval, sweeps)
		sH, sS, sD := timeEngine(scalar(sim.NewZeroDelayToggle(c)), scalar(sim.NewEventDriven(c, tb.Delays)),
			warmup, samples, interval, sweeps)

		cps := func(cycles, n int, sec float64) float64 {
			if sec <= 0 {
				return 0
			}
			return float64(cycles*n) / sec
		}
		ratio := func(a, b float64) float64 {
			if b <= 0 {
				return 0
			}
			return a / b
		}
		row := EngineBenchRow{
			Name: name, Gates: c.NumGates(), Lanes: lanes,
			Warmup: warmup, Samples: samples, Interval: interval,
			ScalarHiddenCPS:    cps(sweeps*perSweep, 1, sH),
			CompiledHiddenCPS:  cps(sweeps*perSweep, lanes, cH),
			ScalarSampledCPS:   cps(sweeps*samples, 1, sS),
			CompiledSampledCPS: cps(sweeps*samples, lanes, cS),
			ScalarDutyCPS:      cps(sweeps*perSweep, 1, sD),
			CompiledDutyCPS:    cps(sweeps*perSweep, lanes, cD),
		}
		row.HiddenSpeedup = ratio(row.CompiledHiddenCPS, row.ScalarHiddenCPS)
		row.SampledSpeedup = ratio(row.CompiledSampledCPS, row.ScalarSampledCPS)
		row.DutySpeedup = ratio(row.CompiledDutyCPS, row.ScalarDutyCPS)
		rows = append(rows, row)
	}
	return rows, nil
}

// EngineBenchReport is the JSON document emitted for regression
// tracking (BENCH_1.json): the machine context plus one row per
// circuit.
type EngineBenchReport struct {
	Benchmark string           `json:"benchmark"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Rows      []EngineBenchRow `json:"rows"`
}

// EngineBenchJSON renders rows as an indented JSON report.
func EngineBenchJSON(rows []EngineBenchRow) string {
	rep := EngineBenchReport{
		Benchmark: "compiled lane engine vs scalar simulators: hidden, sampled and duty cycles",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Rows:      rows,
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		// Marshal of a plain struct cannot fail; keep the API total anyway.
		return "{}"
	}
	return string(b) + "\n"
}

// RenderEngineBench renders rows as an ASCII table.
func RenderEngineBench(rows []EngineBenchRow) string {
	s := fmt.Sprintf("%-8s %7s %6s %12s %12s %8s %8s %8s\n",
		"circuit", "gates", "lanes", "scalar duty", "cc duty", "hidden.x", "sampl.x", "duty.x")
	for _, r := range rows {
		s += fmt.Sprintf("%-8s %7d %6d %12.3g %12.3g %7.1fx %7.1fx %7.1fx\n",
			r.Name, r.Gates, r.Lanes, r.ScalarDutyCPS, r.CompiledDutyCPS,
			r.HiddenSpeedup, r.SampledSpeedup, r.DutySpeedup)
	}
	return s
}
