package epoch

import (
	"cmp"
	"slices"
	"strconv"

	"persistbarriers/internal/mem"
)

// Write is one line's final version in an epoch's write set.
type Write struct {
	Line    mem.Line
	Version mem.Version
}

// WriteSet is the final version an epoch wrote to each line: one entry per
// line, sorted by line.
type WriteSet []Write

// MarshalJSON renders the set as a JSON object from decimal line to
// version, with keys in encoding/json's map order (sorted as strings).
// Those are the bytes a map[mem.Line]mem.Version marshals to, so a
// Result's digest does not depend on the set's in-memory layout.
func (ws WriteSet) MarshalJSON() ([]byte, error) {
	keys := make([]string, len(ws))
	order := make([]int, len(ws))
	for i, w := range ws {
		keys[i] = strconv.FormatUint(uint64(w.Line), 10)
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	buf := make([]byte, 0, 2+24*len(ws))
	buf = append(buf, '{')
	for n, i := range order {
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, keys[i]...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendUint(buf, uint64(ws[i].Version), 10)
	}
	return append(buf, '}'), nil
}

// Write- and edge-log chunks start at minChunk entries and double up to
// maxChunk, so a short history wastes little and a long one allocates
// rarely.
const minChunk, maxChunk = 32, 4096

// chunkSize returns the capacity of the chunk that follows one of
// capacity prev and must take need entries at once.
func chunkSize(prev, need int) int {
	return max(need, min(max(2*prev, minChunk), maxChunk))
}

// compact sorts a run of stores by line and keeps each line's final
// store, in place, returning the prefix that holds the result. Versions
// grow with commit order, so a line's final store is its highest version.
func compact(ws []Write) WriteSet {
	if len(ws) < 2 {
		return ws
	}
	slices.SortFunc(ws, func(a, b Write) int {
		return cmp.Or(cmp.Compare(a.Line, b.Line), cmp.Compare(a.Version, b.Version))
	})
	out := ws[:1]
	for _, w := range ws[1:] {
		if last := &out[len(out)-1]; last.Line == w.Line {
			*last = w
		} else {
			out = append(out, w)
		}
	}
	return out
}

// RecordWrite appends a store to the current epoch's write set. Only a
// table that records history keeps write sets; otherwise it is a no-op.
//
// Stores go to one per-core log. Only the current epoch receives stores,
// so each epoch's stores form one contiguous run of the log; Advance
// compacts the run to the epoch's final WriteSet in place. A full chunk
// is not grown: a new one starts, carrying the open epoch's run along,
// and closed epochs keep the old chunk alive through their sub-slices.
func (t *Table) RecordWrite(line mem.Line, v mem.Version) {
	if !t.cfg.RecordHistory {
		return
	}
	if len(t.wlog) == cap(t.wlog) {
		open := t.wlog[t.wopen:]
		chunk := make([]Write, len(open), chunkSize(cap(t.wlog), 2*len(open)))
		copy(chunk, open)
		t.wlog, t.wopen = chunk, 0
	}
	t.wlog = append(t.wlog, Write{Line: line, Version: v})
}

// closeWrites compacts the open epoch's run of the write log and returns
// it as the epoch's WriteSet; the log's next store starts the next run.
func (t *Table) closeWrites() WriteSet {
	ws := compact(t.wlog[t.wopen:])
	t.wopen += len(ws)
	t.wlog = t.wlog[:t.wopen]
	return ws[:len(ws):len(ws)]
}

// openWrites returns a compacted copy of the open epoch's stores, leaving
// the log untouched so the epoch can keep running.
func (t *Table) openWrites() WriteSet {
	return compact(slices.Clone(t.wlog[t.wopen:]))
}

// noEdges is the edge list of an epoch with no inter-thread edges: empty
// but non-nil, so it marshals as [] like every other edge list.
var noEdges = []ID{}

// edges merges r's IDT register sources and online-enforced orderings
// into one happens-before edge list for the recovery checker, carved from
// the table's edge log so closing an epoch allocates nothing of its own.
func (t *Table) edges(r *Record) []ID {
	n := len(r.Deps) + len(r.OnlineEdges)
	if n == 0 {
		return noEdges
	}
	if cap(t.elog)-len(t.elog) < n {
		t.elog = make([]ID, 0, chunkSize(cap(t.elog), n))
	}
	start := len(t.elog)
	for i := range r.Deps {
		t.elog = append(t.elog, r.Deps[i].Source)
	}
	t.elog = append(t.elog, r.OnlineEdges...)
	return t.elog[start:len(t.elog):len(t.elog)]
}
