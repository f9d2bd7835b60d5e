package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

func TestPercentileExact(t *testing.T) {
	var l lat
	for i := 100; i >= 1; i-- {
		l.add(int64(i) * 1000) // 1..100 us, added out of order
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1}, {1.5, 2}} {
		s := slices.Clone(l.ns)
		slices.Sort(s)
		if got := percentile(s, c.p); got != c.want*1000 {
			t.Errorf("p%g of 1..100: got %d ns, want %d", c.p, got, c.want*1000)
		}
	}
	s := l.summary()
	if s.N != 100 || s.P50 != 50 || s.P99 != 99 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summary of 1..100 us = %+v, want n=100 p50=50 p99=99 tail=p90=90", s)
	}
}

func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {20, 50}, {19, 0}, {1, 0}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	var l lat
	for i := 1; i <= 10; i++ {
		l.add(int64(i))
	}
	if s := l.summary(); s.TailPct != 100 || s.Tail != 0.01 {
		t.Errorf("ten samples: tail %+v, want the maximum", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	a, b := genStream(7, 0, writeSpec), genStream(7, 0, writeSpec)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different kv-write streams")
	}
	if slices.Equal(a, genStream(8, 0, writeSpec)) || slices.Equal(a, genStream(7, 1, writeSpec)) {
		t.Fatal("another seed or connection gave the same stream")
	}
	l1, s1, t1 := ladderStream(7)
	l2, s2, t2 := ladderStream(7)
	if !slices.Equal(l1, l2) || !slices.Equal(s1, s2) || t1 != t2 || !slices.Equal(jsonStream(7), jsonStream(7)) {
		t.Fatal("same seed gave different kv-read streams")
	}
	counts := map[opKind]int{}
	for _, o := range a {
		counts[o.kind]++
		if o.key < 0 || int(o.key) >= kvKeys {
			t.Fatalf("key %d out of range", o.key)
		}
	}
	if g, p := counts[opGet]*100/len(a), counts[opPut]*100/len(a); g < 23 || g > 27 || p < 68 || p > 72 {
		t.Errorf("kv-write mix %d%% get / %d%% put, want about 25/70", g, p)
	}
}

func TestTagRoundTrip(t *testing.T) {
	v := tagValue(4095, 2, 123456789)
	k, c, s, ok := parseTag(v)
	if len(v) != valueSize || !ok || k != 4095 || c != 2 || s != 123456789 {
		t.Fatalf("parseTag(%q) = %d %d %d %v", v, k, c, s, ok)
	}
	v[40] = 'x'
	if _, _, _, ok := parseTag(v); ok {
		t.Fatal("parseTag accepted a corrupted value")
	}
}

func TestCheckHistory(t *testing.T) {
	put := event{kind: opPut, key: 5, submit: 10, ack: 20, done: true}
	get := event{kind: opGet, key: 5, submit: 30, ack: 40, done: true}
	get.record(true, tagValue(5, 0, 0))
	hist := [][]event{{put, get}}
	if f, why := checkHistory(hist); f != 0 {
		t.Fatalf("valid history failed: %v", why)
	}
	// Not-found after an acked put, with no delete: a lost write.
	lost := get
	lost.record(false, nil)
	if f, _ := checkHistory([][]event{{put, lost}}); f != 1 {
		t.Errorf("lost write: %d failures, want 1", f)
	}
	// ...unless a delete may be ordered after the put.
	del := event{kind: opDel, key: 5, submit: 25, ack: 35, done: true}
	if f, why := checkHistory([][]event{{put, lost, del}}); f != 0 {
		t.Errorf("not-found after a delete failed: %v", why)
	}
	// A value for another key, or one no put wrote.
	wrong := get
	wrong.record(true, tagValue(6, 0, 0))
	if f, _ := checkHistory([][]event{{put, wrong}}); f != 1 {
		t.Errorf("value of another key: %d failures, want 1", f)
	}
	future := get
	future.record(true, tagValue(5, 0, 2))
	if f, _ := checkHistory([][]event{{put, future, {kind: opPut, key: 5, submit: 50, ack: 60, done: true}}}); f != 1 {
		t.Errorf("value written after the read: %d failures, want 1", f)
	}
	// Errors, crashed acks and missing replies count as failed.
	bad := put
	bad.bad = true
	if f, _ := checkHistory([][]event{{bad, {kind: opGet, key: 1}}}); f != 2 {
		t.Errorf("error and missing reply: %d failures, want 2", f)
	}
}

func TestGoldenRejectsPerturbedStat(t *testing.T) {
	var want []simStat
	if err := json.Unmarshal(goldenJSON, &want); err != nil || len(want) != 10 {
		t.Fatalf("golden.json: %v (%d runs)", err, len(want))
	}
	if f, why := checkGolden(want, goldenJSON); f != 0 {
		t.Fatalf("golden does not match itself: %v", why)
	}
	for _, perturb := range []func(*simStat){
		func(s *simStat) { s.ExecCycles++ },
		func(s *simStat) { s.EpochsPersisted-- },
		func(s *simStat) { s.Conflicting++ },
	} {
		got := slices.Clone(want)
		perturb(&got[3])
		if f, _ := checkGolden(got, goldenJSON); f != 1 {
			t.Errorf("perturbed stat: %d failures, want 1", f)
		}
	}
	if f, _ := checkGolden(want[:9], goldenJSON); f == 0 {
		t.Error("a missing run passed the golden check")
	}
}

func TestSmokeSimBEP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite")
	}
	r, err := runSimRound(goldenSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("sim-bep checks failed: %v", r.why)
	}
	if f, why := checkGolden(r.stats, goldenJSON); f != 0 {
		t.Fatalf("golden mismatch: %v", why)
	}
}

// buildPMKVD builds the server the KV smoke tests start.
func buildPMKVD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pmkvd")
	if out, err := exec.Command("go", "build", "-o", bin, "persistbarriers/cmd/pmkvd").CombinedOutput(); err != nil {
		t.Fatalf("build pmkvd: %v\n%s", err, out)
	}
	return bin
}

func TestSmokeKV(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pmkvd")
	}
	bin := buildPMKVD(t)
	keys := keyNames(kvKeys)
	t.Run("kv-write", func(t *testing.T) {
		sp := writeSpec
		sp.ops = 2000
		streams := [][]op{genStream(1, 0, sp), genStream(1, 1, sp)}
		vals := [][][]byte{putValues(streams[0], 0), putValues(streams[1], 1)}
		r, err := writeRound(bin, streams, vals, keys, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.ops != 4000 {
			t.Fatalf("%d ops, %d failed: %v", r.ops, r.failed, r.why)
		}
		if r.batchMean <= 0 || r.drain.RSSMB <= 0 {
			t.Errorf("scrape or rusage empty: batch mean %g, rss %g", r.batchMean, r.drain.RSSMB)
		}
	})
	t.Run("kv-read", func(t *testing.T) {
		r, steps, _, err := readRound(bin, 1, keys, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || len(steps) != len(readLadder) || r.satRate <= 0 {
			t.Fatalf("%d failed, %d steps, saturation %g ops/s: %v", r.failed, len(steps), r.satRate, r.why)
		}
	})
}
