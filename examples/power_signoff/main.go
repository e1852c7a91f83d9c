// Power signoff: a realistic end-to-end power characterization of one
// circuit, combining every estimator in the library the way a power
// methodology would:
//
//  1. a probabilistic quick estimate (seconds-scale screening, the
//     refs [2-4] baseline — known to be optimistic/pessimistic);
//  2. the DIPE statistical estimate with accuracy guarantees (the
//     paper's contribution);
//  3. peak single-cycle power via randomized search (ref [8]'s problem,
//     for IR-drop/reliability margins);
//  4. the per-node power ranking (optimization targets).
//
// go run ./examples/power_signoff
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	circuit, err := dipe.Benchmark("s832")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(circuit.ComputeStats())
	tb := dipe.NewTestbench(circuit)
	width := len(circuit.Inputs)

	// 1. Probabilistic screening: no simulation at all.
	inputP := make([]float64, width)
	for i := range inputP {
		inputP[i] = 0.5
	}
	stats, err := dipe.AnalyzeProbabilities(circuit, inputP)
	if err != nil {
		log.Fatal(err)
	}
	pQuick := stats.Power(tb.Model)
	fmt.Printf("\n1. probabilistic screening : %s (%d fixpoint iterations; no correlations, no glitches)\n",
		dipe.FormatWatts(pQuick), stats.Iterations)

	// 2. DIPE with the paper's 5%/0.99 specification.
	res, err := dipe.Estimate(tb.NewSession(dipe.NewIIDSource(width, 0.5, 1)), dipe.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. DIPE average            : %s (II=%d, %d samples, half-width %.1f%% at 0.99)\n",
		dipe.FormatWatts(res.Power), res.Interval, res.SampleSize, 100*res.RelHalfWidth())
	fmt.Printf("   screening error vs DIPE : %+.1f%%\n", 100*(pQuick-res.Power)/res.Power)

	// 3. Peak power search.
	mOpts := dipe.DefaultMaxPowerOptions()
	mOpts.Budget = 6000
	peak, err := dipe.MaxPower(tb, mOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. peak single-cycle power : %s (%.1fx average; %d-cycle search)\n",
		dipe.FormatWatts(peak.Power), peak.Power/res.Power, peak.Cycles)

	// 4. Where does the power go?
	s := tb.NewSession(dipe.NewIIDSource(width, 0.5, 2))
	s.StepHiddenN(512)
	counts := make([]uint64, circuit.NumNodes())
	const cycles = 20_000
	for i := 0; i < cycles; i++ {
		s.StepSampled(counts)
	}
	fmt.Println("4. top consumers (dynamic + leakage):")
	for i, r := range tb.Model.Breakdown(circuit, counts, cycles).TopRows(5) {
		fmt.Printf("   %d. %-12s %12s (%.1f%%)\n", i+1, r.Name, dipe.FormatWatts(r.Dynamic+r.Leakage), 100*r.Share)
	}
}
