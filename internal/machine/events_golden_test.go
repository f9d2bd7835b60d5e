package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"persistbarriers/internal/cache"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// eventRun is one pinned simulation: how many events fired, the cycle the
// run quiesced at, and the digest of its full Result. Probe runs also pin
// the count and digest of the observability event stream.
type eventRun struct {
	Name        string `json:"name"`
	Fired       uint64 `json:"fired"`
	FinalCycle  uint64 `json:"final_cycle"`
	Fingerprint string `json:"fingerprint"`
	ProbeEvents int    `json:"probe_events,omitempty"`
	ProbeDigest string `json:"probe_digest,omitempty"`
}

// digestSink hashes every probe event in emission order.
type digestSink struct {
	h hash.Hash
	n int
}

func (s *digestSink) Emit(ev obs.Event) {
	s.n++
	fmt.Fprintf(s.h, "%+v\n", ev)
}

// eventVariants are the barrier configurations whose event sequences the
// golden pins: every branch of the flush handshake (per-core and global
// arbiter, clwb and clflush) plus the EP model's eager flushes.
var eventVariants = []struct {
	name string
	set  func(*Config)
}{
	{"LB", func(c *Config) {}},
	{"LB++", func(c *Config) { c.IDT, c.PF = true, true }},
	{"LB++clflush", func(c *Config) { c.IDT, c.PF, c.FlushMode = true, true, cache.Invalidating }},
	{"LB++global", func(c *Config) { c.IDT, c.PF, c.GlobalArbiter = true, true, true }},
	{"EP", func(c *Config) { c.Model = EP }},
}

func runEvents(t *testing.T, name, bench string, set func(*Config), probe bool) eventRun {
	t.Helper()
	p, err := workload.Microbenchmarks()[bench](workload.Spec{Threads: 8, OpsPerThread: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Model = LB
	cfg.RecordHistory = true
	set(&cfg)
	var sink *digestSink
	if probe {
		sink = &digestSink{h: sha256.New()}
		cfg.Probe = obs.NewProbe(sink)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("%s did not finish", name)
	}
	r := eventRun{
		Name:        name,
		Fired:       m.Engine().Fired(),
		FinalCycle:  uint64(m.Engine().Now()),
		Fingerprint: stats.MustFingerprint(res),
	}
	if sink != nil {
		r.ProbeEvents = sink.n
		r.ProbeDigest = hex.EncodeToString(sink.h.Sum(nil))
	}
	return r
}

// TestEventSequenceGolden pins the exact event sequence of the Table 2
// micro-benchmarks under every flush-handshake configuration: the number
// of events fired, the final cycle and the Result digest, plus one LB++
// run's full probe stream. A change to how continuations are scheduled
// that reorders even one At/After call shows up here. Refresh with
//
//	go test ./internal/machine -run TestEventSequenceGolden -update
//
// and justify the new numbers in the commit message.
func TestEventSequenceGolden(t *testing.T) {
	var runs []eventRun
	for _, bench := range workload.MicrobenchmarkNames() {
		for _, v := range eventVariants {
			runs = append(runs, runEvents(t, bench+"/"+v.name, bench, v.set, false))
		}
	}
	runs = append(runs, runEvents(t, "queue/LB++probe", "queue", eventVariants[1].set, true))

	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "events.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event sequence drifted from golden file %s\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}
