package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// engineRows runs a small engine report on s27 and s298 and checks the
// row count and the recorded configuration, which every column test
// relies on.
func engineRows(t *testing.T) []EngineBenchRow {
	t.Helper()
	rows, err := EngineThroughput([]string{"s27", "s298"}, 32, 4, 4, 2, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "s27" || rows[1].Name != "s298" {
		t.Fatalf("got rows %+v, want s27 then s298", rows)
	}
	for _, r := range rows {
		if r.Lanes != 96 || r.Warmup != 32 || r.Samples != 4 || r.Interval != 4 {
			t.Errorf("%s: config not recorded: %+v", r.Name, r)
		}
		if r.Gates <= 0 {
			t.Errorf("%s: gate count %d", r.Name, r.Gates)
		}
	}
	return rows
}

// TestEngineThroughput covers the duty column and the report's JSON and
// ASCII forms.
func TestEngineThroughput(t *testing.T) {
	rows := engineRows(t)
	for _, r := range rows {
		if r.ScalarDutyCPS <= 0 || r.CompiledDutyCPS <= 0 || r.DutySpeedup <= 0 {
			t.Errorf("%s: nonpositive duty throughput: %+v", r.Name, r)
		}
	}

	var rep EngineBenchReport
	if err := json.Unmarshal([]byte(EngineBenchJSON(rows)), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0] != rows[0] || rep.Rows[1] != rows[1] {
		t.Fatalf("report rows do not round-trip: %+v", rep)
	}
	if !strings.Contains(RenderEngineBench(rows), "s298") {
		t.Fatal("ASCII render missing circuit name")
	}
}

// TestPackedThroughput covers the hidden column: the compiled lane
// session's StepHidden against the scalar zero-delay settle.
func TestPackedThroughput(t *testing.T) {
	rows := engineRows(t)
	for _, r := range rows {
		if r.ScalarHiddenCPS <= 0 || r.CompiledHiddenCPS <= 0 {
			t.Errorf("%s: nonpositive hidden throughput: %+v", r.Name, r)
		}
		if want := r.CompiledHiddenCPS / r.ScalarHiddenCPS; r.HiddenSpeedup != want {
			t.Errorf("%s: hidden speedup %g, want %g", r.Name, r.HiddenSpeedup, want)
		}
	}
	if !strings.Contains(EngineBenchJSON(rows), `"hidden_speedup"`) {
		t.Fatal("JSON report missing the hidden column")
	}
}

func TestPackedThroughputErrors(t *testing.T) {
	if _, err := EngineThroughput([]string{"s27"}, 32, 4, 4, 2, 0, 1); err == nil {
		t.Fatal("lanes=0 accepted")
	}
	if _, err := EngineThroughput([]string{"s27"}, 32, 4, 4, 2, 513, 1); err == nil {
		t.Fatal("lanes=513 accepted")
	}
	if _, err := EngineThroughput([]string{"sNOPE"}, 32, 4, 4, 2, 64, 1); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

// TestSampledThroughput covers the sampled column: the compiled
// zero-delay sampled step against a scalar event-driven sampled cycle.
func TestSampledThroughput(t *testing.T) {
	rows := engineRows(t)
	for _, r := range rows {
		if r.ScalarSampledCPS <= 0 || r.CompiledSampledCPS <= 0 {
			t.Errorf("%s: nonpositive sampled throughput: %+v", r.Name, r)
		}
		if want := r.CompiledSampledCPS / r.ScalarSampledCPS; r.SampledSpeedup != want {
			t.Errorf("%s: sampled speedup %g, want %g", r.Name, r.SampledSpeedup, want)
		}
	}
	if !strings.Contains(EngineBenchJSON(rows), `"sampled_speedup"`) {
		t.Fatal("JSON report missing the sampled column")
	}
}

func TestSampledThroughputErrors(t *testing.T) {
	if _, err := EngineThroughput([]string{"s27"}, 32, 0, 4, 2, 64, 1); err == nil {
		t.Fatal("samples=0 accepted")
	}
	if _, err := EngineThroughput([]string{"s27"}, 32, 4, 0, 2, 64, 1); err == nil {
		t.Fatal("interval=0 accepted")
	}
}

func TestEngineThroughputErrors(t *testing.T) {
	if _, err := EngineThroughput([]string{"s27"}, 0, 4, 4, 2, 64, 1); err == nil {
		t.Fatal("warmup=0 accepted")
	}
	if _, err := EngineThroughput([]string{"s27"}, 32, 4, 4, 0, 64, 1); err == nil {
		t.Fatal("sweeps=0 accepted")
	}
}

// TestTable1Parallel: Table1 over the bit-parallel estimator produces
// sane rows (the serial path is covered by the existing tests).
func TestTable1Parallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Circuits = []string{"s27"}
	cfg.RefCycles = func(int) int { return 5_000 }
	cfg.Replications = 8
	cfg.Workers = 2
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Estimate <= 0 {
		t.Fatalf("bad rows: %+v", rows)
	}
	if rows[0].ErrPct > 25 {
		t.Fatalf("parallel estimate off by %.1f%% from reference", rows[0].ErrPct)
	}
}
