package machine

import (
	"runtime"
	"testing"

	"persistbarriers/internal/recovery"
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

// queueRun runs the LB++ queue micro-benchmark and returns the result,
// the run's malloc count and the epochs it persisted.
func queueRun(t *testing.T, ops int, history bool) (*Result, uint64) {
	t.Helper()
	p, err := workload.Queue(workload.Spec{Threads: 8, OpsPerThread: ops, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.IDT, cfg.PF = true, true
	cfg.RecordHistory = history
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
	return res, after.Mallocs - before.Mallocs
}

// TestHistoryAllocsPerEpoch gates the cost of recording epoch history:
// write sets and edge lists are carved from per-core logs, so the same
// run with history on may make at most one malloc per persisted epoch
// more than with it off.
func TestHistoryAllocsPerEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	res, on := queueRun(t, 25, true)
	_, off := queueRun(t, 25, false)
	epochs := res.Epochs.Persisted
	t.Logf("history on %d mallocs, off %d, over %d persisted epochs", on, off, epochs)
	if on > off+epochs {
		t.Fatalf("history costs %d mallocs over %d persisted epochs, want <= 1 per epoch", on-off, epochs)
	}
}

// TestCheckAllAllocsConstant gates the recovery checker's allocations:
// the dense graph and its durability flags are a fixed set of flat
// slices, so CheckAll's malloc count must not grow with the epoch count.
// The same run at twice the op count must match within a small constant.
func TestCheckAllAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	mallocs := func(ops int) (uint64, uint64) {
		res, _ := queueRun(t, ops, true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := recovery.CheckAll(res.Histories, res.Image, nil, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Epochs.Persisted
	}
	small, smallEpochs := mallocs(25)
	large, largeEpochs := mallocs(50)
	t.Logf("CheckAll: %d mallocs over %d epochs, %d over %d", small, smallEpochs, large, largeEpochs)
	if largeEpochs < 3*smallEpochs/2 {
		t.Fatalf("op count doubling grew epochs only %d -> %d", smallEpochs, largeEpochs)
	}
	if diff := int64(large) - int64(small); diff < -2 || diff > 2 {
		t.Fatalf("CheckAll mallocs %d at %d epochs vs %d at %d: grows with the history", large, largeEpochs, small, smallEpochs)
	}
}
