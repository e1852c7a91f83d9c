package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed report against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced — those
// BENCHMARK.json lists and cli-s38417, which it leaves out — and checks
// that the output check passes and that exactly the metrics
// BENCHMARK.json names are printed, each with its unit.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{toPairs(spec.EndToEnd), toPairs(spec.PerLayer)} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace), "--root", ".."}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", rep.Correct, rep.Attempted, rep.Failed, errb.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestChecksCatchPerturbations is the negative self-test in isolation:
// the reference check rejects a moved estimate or reference, and the
// bit-identity check rejects a one-ulp change.
func TestChecksCatchPerturbations(t *testing.T) {
	o := outcome{Power: 1.0, HalfWidth: 0.01, SampleSize: 1000, Interval: 1, Converged: true}
	if err := checkReference(o, 1.02); err != nil {
		t.Fatalf("a 2%% deviation was rejected: %v", err)
	}
	if err := selfTest([]outcome{o}, 1.02, &[2]outcome{o, o}); err != nil {
		t.Fatalf("self-test on clean data: %v", err)
	}
	for _, ref := range []float64{1.2, 0.8, 0} {
		if checkReference(o, ref) == nil {
			t.Errorf("reference %v accepted for estimate 1.0", ref)
		}
	}
	unconverged := o
	unconverged.Converged = false
	if checkReference(unconverged, 1) == nil {
		t.Error("an unconverged job passed")
	}
	moved := o
	moved.Power = math.Nextafter(o.Power, 2)
	if sameResult(o, moved) == nil {
		t.Error("a one-ulp change passed the bit-identity check")
	}
}
