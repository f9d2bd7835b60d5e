package machine

import (
	"runtime"
	"testing"

	"persistbarriers/internal/workload"
)

// TestAllocsPerEvent gates the simulator's host allocation rate: one
// fixed LB++ queue run must average at most one malloc per fired event.
// The flush handshake, LLC requests and NVRAM writes run on pooled
// continuation records, so a closure creeping back onto one of those
// paths (each costs one to three mallocs per event) fails here. Both
// counts are deterministic for a given build.
func TestAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p, err := workload.Queue(workload.Spec{Threads: 8, OpsPerThread: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.IDT, cfg.PF = true, true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	events := m.Engine().Fired()
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d mallocs over %d events: %.3f per event", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > 1.0 {
		t.Fatalf("%.3f mallocs per event, want <= 1.0", perEvent)
	}
}
