package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/refsim"
	"repro/internal/stats"
	"repro/internal/vectors"
)

// The output check has three parts:
//   - every job converges and its estimate lies within refTolerance
//     (twice the spec's 5% relative error) of a stored long-run
//     reference for its circuit, power mode and input model;
//   - bit-identity: service results equal in-process core.EstimateParallel,
//     cached repeats equal the run they repeat, and traced reruns equal
//     the untraced run;
//   - a negative self-test: a perturbed reference and a perturbed result
//     must both be caught, so the checks cannot pass vacuously.

// refTolerance is the accepted relative distance from the reference.
const refTolerance = 2 * 0.05

// reference is one stored long-run refsim estimate.
type reference struct {
	Circuit string  `json:"circuit"`
	Mode    string  `json:"mode"`
	Input   string  `json:"input"`
	Power   float64 `json:"power_w"`
	StdErr  float64 `json:"stderr_w"`
	RelSE   float64 `json:"rel_stderr"`
	Runs    int     `json:"runs"`
	Cycles  int     `json:"cycles_per_run"`
	Warmup  int     `json:"warmup"`
	Seed    int64   `json:"seed"`
}

// refFile is the layout of refs.json.
type refFile struct {
	Command    string      `json:"command"`
	References []reference `json:"references"`
}

//go:embed refs.json
var refsJSON []byte

// refSpec lists what regenerateReferences computes: consecutive-cycle
// refsim runs from independent seeds, pooled. Cycle counts size each
// reference's relative standard error well under 1% (s38417 runs at
// about 1.1 ms per general-delay cycle).
var refSpec = []struct {
	circuit string
	mode    power.PowerMode
	runs    int
	cycles  int
}{
	{"s1494", power.ModeGeneralDelay, 4, 100000},
	{"s1494", power.ModeZeroDelay, 4, 100000},
	{"s38417", power.ModeGeneralDelay, 4, 4000},
}

const refInput = "iid p=0.5"

func refKey(circuit string, mode power.PowerMode) string {
	return circuit + "/" + mode.String() + "/" + refInput
}

func loadReferences() (map[string]reference, error) {
	var f refFile
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	out := map[string]reference{}
	for _, r := range f.References {
		out[refKey(r.Circuit, power.PowerMode(r.Mode))] = r
	}
	return out, nil
}

// checkReference checks one converged result against a reference power.
func checkReference(o outcome, ref float64) error {
	switch {
	case o.Err != nil:
		return o.Err
	case !o.Converged:
		return errors.New("did not converge")
	case ref <= 0:
		return errors.New("no reference")
	}
	if d := math.Abs(o.Power-ref) / ref; !(d <= refTolerance) {
		return fmt.Errorf("estimate %.6g W is %.1f%% from the reference %.6g W (limit %.0f%%)",
			o.Power, 100*d, ref, 100*refTolerance)
	}
	return nil
}

// selfTest runs the checks on perturbed data and reports an error when
// a perturbation goes unnoticed. exact, when non-nil, is one pair of
// outcomes the run compared bit for bit.
func selfTest(outs []outcome, ref float64, exact *[2]outcome) error {
	var probe *outcome
	for i := range outs {
		if checkReference(outs[i], ref) == nil {
			probe = &outs[i]
			break
		}
	}
	if probe == nil {
		return errors.New("no passing job to perturb")
	}
	if checkReference(*probe, ref*(1+3*refTolerance)) == nil {
		return errors.New("a reference moved by 30% still passed")
	}
	moved := *probe
	moved.Power *= 1 + 1.5*refTolerance
	if checkReference(moved, ref) == nil {
		return errors.New("a result moved by 15% still passed")
	}
	if exact != nil {
		b := exact[1]
		b.Power = math.Nextafter(b.Power, math.Inf(1))
		if sameResult(exact[0], b) == nil {
			return errors.New("a one-ulp change of a result passed the bit-identity check")
		}
	}
	return nil
}

// regenerateReferences recomputes every reference in refSpec and
// writes refs.json.
func regenerateReferences(path string, log io.Writer) error {
	f := refFile{Command: "bash e2ebench/run.sh --regen-refs"}
	for _, sp := range refSpec {
		c, err := bench89.Get(sp.circuit)
		if err != nil {
			return err
		}
		tb := core.DefaultTestbench(c)
		const seed = 20260101
		results := make([]refsim.Result, sp.runs)
		var wg sync.WaitGroup
		sem := make(chan struct{}, 2)
		start := time.Now()
		for r := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				src := vectors.NewIID(len(c.Inputs), 0.5, seed+int64(r))
				results[r] = refsim.Run(tb.NewSessionMode(src, sp.mode), 4096, sp.cycles)
			}()
		}
		wg.Wait()
		// Pool the independent runs: mean of means, standard error of the
		// pooled mean from the per-run batch-means errors.
		var means stats.Accumulator
		var se2 float64
		for _, r := range results {
			means.Add(r.Power)
			se2 += r.StdErr * r.StdErr
		}
		ref := reference{
			Circuit: sp.circuit,
			Mode:    sp.mode.String(),
			Input:   refInput,
			Power:   means.Mean(),
			StdErr:  math.Sqrt(se2) / float64(sp.runs),
			Runs:    sp.runs,
			Cycles:  sp.cycles,
			Warmup:  4096,
			Seed:    seed,
		}
		ref.RelSE = ref.StdErr / ref.Power
		fmt.Fprintf(log, "%s %s: %.6g W, rel. SE %.3f%% (%d x %d cycles, %s)\n",
			sp.circuit, sp.mode, ref.Power, 100*ref.RelSE, sp.runs, sp.cycles, time.Since(start).Round(time.Second))
		f.References = append(f.References, ref)
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
