package cluster

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// TestClusterCompiledBackendGolden: the golden guarantee over the wire
// — a cluster job, with one and with two workers, reproduces the
// single-process reference bit for bit, and a request still spelling
// the deprecated "packed" backend runs the same compiled lane engine
// and reports its labels.
func TestClusterCompiledBackendGolden(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()

	reg := service.NewRegistry(0)

	req := service.JobRequest{
		Circuit: "s298", Seed: 404,
		Options: service.OptionsSpec{Replications: 96, Workers: 2, PowerMode: "zero-delay"},
	}
	want := reference(t, reg, req)
	packedReq := service.JobRequest{
		Circuit: "s298", Seed: 404,
		Options: service.OptionsSpec{Replications: 96, Workers: 2, PowerMode: "zero-delay", Backend: "packed"},
	}

	tb, err := reg.Testbench(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		urls []string
	}{
		{"one-worker", []string{s1.URL}},
		{"two-workers", []string{s1.URL, s2.URL}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, reg, tc.urls...)
			got, err := coord.Estimate(context.Background(), tb, packedReq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Engine != sim.EngineCompiledZeroDelay || want.Engine != sim.EngineCompiledZeroDelay {
				t.Errorf("engines (%q, %q), want %q", got.Engine, want.Engine, sim.EngineCompiledZeroDelay)
			}
			sameResult(t, got, want, tc.name)
			if !got.Converged {
				t.Fatal("cluster run did not converge")
			}
		})
	}
}

// TestRunRequestBackendValidation: the deprecated backend field still
// decodes — "", "compiled" and "packed" all run the one engine — and
// unknown backends are rejected at the protocol boundary, before any
// simulation starts.
func TestRunRequestBackendValidation(t *testing.T) {
	req := RunRequest{
		Hash: "abc", Interval: 1, RepHi: 4, Rounds: 1,
		Backend: "vectorized",
	}
	if err := req.Validate(); err == nil {
		t.Fatal("bad backend accepted")
	}
	for _, b := range []string{"", "compiled", "packed"} {
		req.Backend = b
		if err := req.Validate(); err != nil {
			t.Fatalf("backend %q rejected: %v", b, err)
		}
	}
}
