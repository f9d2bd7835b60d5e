package epoch

import (
	"encoding/json"
	"slices"
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// TestWriteLogCompactsPerEpoch drives random stores through the per-core
// write log across many epochs and chunk boundaries: every epoch's
// WriteSet must hold exactly the final version per line it stored, sorted
// by line, and the open epoch's set must not disturb the log.
func TestWriteLogCompactsPerEpoch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1 << 20 // nothing persists; every epoch stays in the window
	cfg.RecordHistory = true
	tbl := newTable(t, cfg)
	r := trace.NewRand(5)
	var want []map[mem.Line]mem.Version
	ver := mem.Version(0)
	for e := 0; e < 400; e++ {
		final := map[mem.Line]mem.Version{}
		// Mostly tiny epochs, a few larger than a log chunk.
		n := r.Intn(4)
		if e%97 == 0 {
			n = 3 * maxChunk / 2
		}
		for i := 0; i < n; i++ {
			ver++
			line := mem.Line(r.Intn(64))
			tbl.RecordWrite(line, ver)
			final[line] = ver
		}
		want = append(want, final)
		if e == 399 {
			break // leave the last epoch open
		}
		tbl.Advance(0, BarrierAdvance)
	}
	for pass := 0; pass < 2; pass++ { // History must not consume the open run
		hist := tbl.History()
		if len(hist) != len(want) {
			t.Fatalf("history has %d epochs, want %d", len(hist), len(want))
		}
		for i, s := range hist {
			if !slices.IsSortedFunc(s.Writes, func(a, b Write) int { return int(a.Line) - int(b.Line) }) {
				t.Fatalf("epoch %d write set not sorted: %v", i, s.Writes)
			}
			if len(s.Writes) != len(want[i]) {
				t.Fatalf("epoch %d: %d writes, want %d", i, len(s.Writes), len(want[i]))
			}
			for j, w := range s.Writes {
				if j > 0 && s.Writes[j-1].Line == w.Line {
					t.Fatalf("epoch %d: line %v twice", i, w.Line)
				}
				if want[i][w.Line] != w.Version {
					t.Fatalf("epoch %d line %v: version %d, want %d", i, w.Line, w.Version, want[i][w.Line])
				}
			}
		}
	}
}

// TestWriteSetMarshalsAsMap: a WriteSet must marshal to the same bytes as
// the line->version map holding the same writes, including string-sorted
// keys and the empty set.
func TestWriteSetMarshalsAsMap(t *testing.T) {
	for _, ws := range []WriteSet{
		nil,
		{},
		{{Line: 7, Version: 3}},
		{{Line: 2, Version: 1}, {Line: 9, Version: 5}, {Line: 10, Version: 2}, {Line: 100, Version: 8}, {Line: 1 << 40, Version: 9}},
	} {
		m := map[mem.Line]mem.Version{}
		for _, w := range ws {
			m[w.Line] = w.Version
		}
		got, err := json.Marshal(ws)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(m)
		if string(got) != string(want) {
			t.Fatalf("WriteSet %v marshals to %s, map to %s", ws, got, want)
		}
	}
}
