// Glitch analysis: the paper's two-phase scheme exists because accurate
// power needs a general-delay simulator — a zero-delay model sees only
// functional transitions and misses glitch power entirely (Eq. 1 counts
// *all* transitions n_i). This example quantifies that on a benchmark:
//
//  1. average power under zero-delay, unit-delay and fanout-loaded
//     delay models on the same input stream,
//  2. the glitch share of total power,
//  3. the top power-consuming nodes with their switching rates
//     (switching rate > 1 per cycle is the glitch signature).
//
// go run ./examples/glitch_analysis
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	circuit, err := dipe.Benchmark("s1238")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(circuit.ComputeStats())
	width := len(circuit.Inputs)
	const cycles = 30_000

	models := []struct {
		name string
		dm   dipe.DelayModel
	}{
		{"zero-delay (functional)", dipe.ZeroDelayModel},
		{"unit-delay", dipe.UnitDelayModel},
		{"fanout-loaded (general)", dipe.FanoutDelayModel},
	}

	fmt.Printf("\n%-26s %14s\n", "delay model", "avg power")
	powers := make([]float64, len(models))
	for i, m := range models {
		tb := dipe.NewCustomTestbench(circuit, m.dm, dipe.DefaultCapModel(), dipe.DefaultSupply())
		// Same seed: identical input stream isolates the model effect.
		ref := dipe.RunReference(tb.NewSession(dipe.NewIIDSource(width, 0.5, 7)), 512, cycles)
		powers[i] = ref.Power
		fmt.Printf("%-26s %14s\n", m.name, dipe.FormatWatts(ref.Power))
	}
	glitch := 100 * (powers[2] - powers[0]) / powers[2]
	fmt.Printf("\nglitch power share: %.1f%% of total — invisible to zero-delay simulation\n", glitch)

	// Per-node breakdown under the general-delay model.
	tb := dipe.NewTestbench(circuit)
	s := tb.NewSession(dipe.NewIIDSource(width, 0.5, 8))
	s.StepHiddenN(512)
	counts := make([]uint64, circuit.NumNodes())
	for i := 0; i < cycles; i++ {
		s.StepSampled(counts)
	}
	rep := tb.Model.Breakdown(circuit, counts, cycles)
	fmt.Printf("\ntop consumers (switch/cycle > 1 indicates glitching):\n")
	fmt.Printf("%-4s %-14s %14s %8s %12s\n", "#", "node", "dynamic", "share", "switch/cyc")
	for i, r := range rep.TopRows(8) {
		fmt.Printf("%-4d %-14s %14s %7.2f%% %12.3f\n",
			i+1, r.Name, dipe.FormatWatts(r.Dynamic), 100*r.Share,
			float64(r.Toggles)/float64(rep.Observations))
	}
}
