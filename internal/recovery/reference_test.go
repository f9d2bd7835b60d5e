package recovery

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/trace"
)

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func compareIDs(a, b epoch.ID) int {
	return cmp.Or(cmp.Compare(a.Core, b.Core), cmp.Compare(a.Num, b.Num))
}

// ref is a brute-force reference checker: maps keyed by epoch ID, direct
// predecessors listed per epoch, and a fresh transitive closure walked
// for every epoch a check asks about. It shares no code with Graph.
type ref struct {
	order  []epoch.ID // (core, number) order
	sums   map[epoch.ID]epoch.Summary
	writes map[epoch.ID]map[mem.Line]mem.Version
	preds  map[epoch.ID][]epoch.ID
}

// newRef builds the reference from histories plus application edges
// (later, earlier), dropping edges that name unknown epochs.
func newRef(hist [][]epoch.Summary, extra [][2]epoch.ID) *ref {
	r := &ref{
		sums:   map[epoch.ID]epoch.Summary{},
		writes: map[epoch.ID]map[mem.Line]mem.Version{},
		preds:  map[epoch.ID][]epoch.ID{},
	}
	for _, h := range hist {
		for _, s := range h {
			r.order = append(r.order, s.ID)
			r.sums[s.ID] = s
			w := map[mem.Line]mem.Version{}
			for _, x := range s.Writes {
				w[x.Line] = x.Version
			}
			r.writes[s.ID] = w
		}
	}
	slices.SortFunc(r.order, compareIDs)
	known := func(id epoch.ID) bool { _, ok := r.sums[id]; return ok }
	for _, id := range r.order {
		if prev := (epoch.ID{Core: id.Core, Num: id.Num - 1}); id.Num > 0 && known(prev) {
			r.preds[id] = append(r.preds[id], prev)
		}
		for _, d := range r.sums[id].Deps {
			if known(d) {
				r.preds[id] = append(r.preds[id], d)
			}
		}
	}
	for _, e := range extra {
		if known(e[0]) && known(e[1]) && e[0] != e[1] {
			r.preds[e[0]] = append(r.preds[e[0]], e[1])
		}
	}
	return r
}

// closure returns id's transitive predecessors, id excluded, sorted.
func (r *ref) closure(id epoch.ID) []epoch.ID {
	seen := map[epoch.ID]bool{id: true}
	var out []epoch.ID
	queue := slices.Clone(r.preds[id])
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
		queue = append(queue, r.preds[p]...)
	}
	slices.SortFunc(out, compareIDs)
	return out
}

func (r *ref) touched(id epoch.ID, img map[mem.Line]mem.Version) bool {
	for l, v := range r.writes[id] {
		if img[l] == v {
			return true
		}
	}
	return false
}

// missing returns the lowest line of id not durable in img.
func (r *ref) missing(id epoch.ID, img map[mem.Line]mem.Version) (mem.Line, bool) {
	lines := slices.Sorted(maps.Keys(r.writes[id]))
	for _, l := range lines {
		if img[l] < r.writes[id][l] {
			return l, true
		}
	}
	return 0, false
}

func (r *ref) ordering(img map[mem.Line]mem.Version) string {
	for _, id := range r.order {
		if !r.touched(id, img) {
			continue
		}
		for _, p := range r.closure(id) {
			if line, ok := r.missing(p, img); ok {
				return fmt.Sprintf("recovery: %v has durable data but predecessor %v is missing %v", id, p, line)
			}
		}
	}
	return ""
}

func (r *ref) closed(img map[mem.Line]mem.Version) string {
	for _, id := range r.order {
		if !r.sums[id].PersistedFlag {
			continue
		}
		if line, ok := r.missing(id, img); ok {
			return fmt.Sprintf("recovery: epoch %v declared persisted but line %v is not durable", id, line)
		}
		for _, p := range r.closure(id) {
			if !r.sums[p].PersistedFlag {
				return fmt.Sprintf("recovery: persisted epoch %v has unpersisted predecessor %v", id, p)
			}
		}
	}
	return ""
}

func (r *ref) rollback(img map[mem.Line]mem.Version, log []nvram.LogEntry) map[mem.Line]mem.Version {
	writer := map[mem.Version]epoch.ID{}
	for _, id := range r.order {
		for _, v := range r.writes[id] {
			writer[v] = id
		}
	}
	type key struct {
		id   epoch.ID
		line mem.Line
	}
	undo := map[key]mem.Version{}
	for _, e := range log {
		undo[key{epoch.ID{Core: e.EpochCore, Num: e.EpochNum}, e.Line}] = e.Old
	}
	rec := maps.Clone(img)
	if rec == nil {
		rec = map[mem.Line]mem.Version{}
	}
	lines := slices.Sorted(maps.Keys(rec))
	for changed := true; changed; {
		changed = false
		for _, l := range lines {
			w, ok := writer[rec[l]]
			if rec[l] == mem.NoVersion || !ok || r.sums[w].PersistedFlag {
				continue
			}
			if old, ok := undo[key{w, l}]; ok {
				rec[l] = old
				changed = true
			}
		}
	}
	return rec
}

func (r *ref) atomicity(img map[mem.Line]mem.Version) string {
	for _, id := range r.order {
		if !r.touched(id, img) {
			continue
		}
		if line, ok := r.missing(id, img); ok {
			return fmt.Sprintf("recovery: epoch %v is partially reflected after rollback (line %v missing)", id, line)
		}
	}
	return ""
}

func (r *ref) all(img map[mem.Line]mem.Version, log []nvram.LogEntry, withRollback bool) string {
	if s := r.ordering(img); s != "" {
		return s
	}
	if s := r.closed(img); s != "" {
		return s
	}
	if withRollback {
		return r.atomicity(r.rollback(img, log))
	}
	return ""
}

// refCase is one random history with the material to build images from.
type refCase struct {
	hist  [][]epoch.Summary
	extra [][2]epoch.ID
	// versions lists every version written to each line, ascending.
	versions map[mem.Line][]mem.Version
}

// genCase builds a random multi-core history: up to 4 cores, each with a
// contiguous run of up to 8 epochs from a random first number, created in
// a random interleaving so versions grow with time as in the machine.
// Epochs write random lines of a small pool (so later epochs supersede
// earlier ones) and carry random IDT edges — to other cores, to unknown
// epochs, to themselves, cycles included. extra holds random application
// edges for AddEdge, bogus ones included.
func genCase(r *trace.Rand) refCase {
	const lines = 10
	cores := 1 + r.Intn(4)
	n := make([]int, cores)
	first := make([]uint64, cores)
	for c := range n {
		n[c] = r.Intn(9)
		first[c] = uint64(r.Intn(3))
	}
	randID := func() epoch.ID {
		c := r.Intn(cores + 1) // core == cores is unknown
		return epoch.ID{Core: c, Num: uint64(r.Intn(11))}
	}
	rc := refCase{hist: make([][]epoch.Summary, cores), versions: map[mem.Line][]mem.Version{}}
	ver := mem.Version(0)
	for {
		var live []int
		for c := range n {
			if len(rc.hist[c]) < n[c] {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			break
		}
		c := live[r.Intn(len(live))]
		s := epoch.Summary{ID: epoch.ID{Core: c, Num: first[c] + uint64(len(rc.hist[c]))}}
		for l := mem.Line(1); l <= lines; l++ {
			if r.Intn(lines) < 2 {
				ver++
				s.Writes = append(s.Writes, epoch.Write{Line: l, Version: ver})
				rc.versions[l] = append(rc.versions[l], ver)
			}
		}
		for k := r.Intn(4) - 1; k > 0; k-- {
			s.Deps = append(s.Deps, randID())
		}
		rc.hist[c] = append(rc.hist[c], s)
	}
	// Histories arrive in any core order, with empty ones in between.
	for i := len(rc.hist) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		rc.hist[i], rc.hist[j] = rc.hist[j], rc.hist[i]
	}
	for k := r.Intn(5); k > 0; k-- {
		rc.extra = append(rc.extra, [2]epoch.ID{randID(), randID()})
	}
	return rc
}

// image builds one crash image of a random kind, setting the history's
// persisted flags to match, and an undo log for it. ref supplies the
// history's edges and write sets; its copies of the flags go stale.
func (rc refCase) image(r *trace.Rand, ref *ref) (map[mem.Line]mem.Version, []nvram.LogEntry, string) {
	img := map[mem.Line]mem.Version{}
	put := func(id epoch.ID, all bool) {
		for l, v := range ref.writes[id] {
			if (all || r.Intn(2) == 0) && v > img[l] {
				img[l] = v
			}
		}
	}
	// A downward-closed persisted set: random per-core prefixes, closed
	// under every predecessor edge.
	in := map[epoch.ID]bool{}
	var stack []epoch.ID
	for _, h := range rc.hist {
		for k := r.Intn(len(h) + 1); k > 0; k-- {
			stack = append(stack, h[k-1].ID)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !in[id] {
			in[id] = true
			stack = append(stack, ref.preds[id]...)
		}
	}
	var out []epoch.ID
	for _, id := range ref.order {
		if in[id] {
			put(id, true)
		} else {
			out = append(out, id)
		}
	}
	kind := []string{"clean", "frontier", "ordering", "closure", "random"}[r.Intn(5)]
	switch kind {
	case "frontier": // part of one epoch beyond the closed set
		if len(out) > 0 {
			put(out[r.Intn(len(out))], false)
		}
	case "ordering": // one write of an epoch outside the closed set
		if len(out) > 0 {
			id := out[r.Intn(len(out))]
			for l, v := range ref.writes[id] {
				if v > img[l] {
					img[l] = v
					break
				}
			}
		}
	case "random":
		img = map[mem.Line]mem.Version{}
		for l, vs := range rc.versions {
			if k := r.Intn(len(vs) + 1); k > 0 {
				img[l] = vs[k-1]
			}
		}
	}
	for c := range rc.hist {
		for k := range rc.hist[c] {
			s := &rc.hist[c][k]
			s.PersistedFlag = in[s.ID]
			if kind == "closure" && r.Intn(4) == 0 || kind == "random" {
				s.PersistedFlag = r.Intn(2) == 0
			}
		}
	}
	// Undo entries hold each write's pre-epoch version; some are lost,
	// and one names an epoch outside the history.
	var log []nvram.LogEntry
	for _, id := range ref.order {
		for l, v := range ref.writes[id] {
			if r.Intn(5) == 0 {
				continue
			}
			vs := rc.versions[l]
			old := mem.NoVersion
			if i, _ := slices.BinarySearch(vs, v); i > 0 {
				old = vs[i-1]
			}
			log = append(log, nvram.LogEntry{Line: l, Old: old, EpochCore: id.Core, EpochNum: id.Num})
		}
	}
	log = append(log, nvram.LogEntry{Line: 1, Old: 0, EpochCore: 99, EpochNum: 0})
	return img, log, kind
}

// TestCheckerMatchesReference compares the dense checker with the
// brute-force reference on seeded random histories and images: clean
// ones, ones with a partial frontier epoch, planted ordering and closure
// violations, and arbitrary ones, each with an undo log. CheckAll,
// CheckOrdering, CheckPersistedClosed, Rollback and CheckAtomicity must
// agree on every verdict and every error string.
func TestCheckerMatchesReference(t *testing.T) {
	r := trace.NewRand(14)
	verdicts := map[string]int{}
	note := func(check, got string) {
		if got == "" {
			verdicts[check+" ok"]++
		} else {
			verdicts[check+" violation"]++
		}
	}
	for iter := 0; iter < 4000; iter++ {
		rc := genCase(r)
		img, log, kind := rc.image(r, newRef(rc.hist, rc.extra))
		plain, full := newRef(rc.hist, nil), newRef(rc.hist, rc.extra)
		ctx := func() string { return fmt.Sprintf("iter %d (%s image)", iter, kind) }

		for _, withRollback := range []bool{false, true} {
			got := errString(CheckAll(rc.hist, img, log, withRollback))
			if want := plain.all(img, log, withRollback); got != want {
				t.Fatalf("%s: CheckAll(rollback=%v) = %q, reference %q", ctx(), withRollback, got, want)
			}
			note("CheckAll", got)
		}

		g := mustGraph(t, rc.hist)
		for _, e := range rc.extra {
			g.AddEdge(e[0], e[1])
		}
		d := g.Durability(img)
		if got, want := errString(d.CheckOrdering()), full.ordering(img); got != want {
			t.Fatalf("%s: CheckOrdering = %q, reference %q", ctx(), got, want)
		} else {
			note("CheckOrdering", got)
		}
		if got, want := errString(d.CheckPersistedClosed()), full.closed(img); got != want {
			t.Fatalf("%s: CheckPersistedClosed = %q, reference %q", ctx(), got, want)
		} else {
			note("CheckPersistedClosed", got)
		}
		rec, want := Rollback(g, img, log), full.rollback(img, log)
		if !maps.Equal(rec, want) {
			t.Fatalf("%s: Rollback = %v, reference %v", ctx(), rec, want)
		}
		if got, want := errString(g.Durability(rec).CheckAtomicity()), full.atomicity(rec); got != want {
			t.Fatalf("%s: CheckAtomicity = %q, reference %q", ctx(), got, want)
		} else {
			note("CheckAtomicity", got)
		}
		for _, id := range full.order {
			if got, want := g.Predecessors(id), full.closure(id); !slices.Equal(got, want) {
				t.Fatalf("%s: Predecessors(%v) = %v, reference %v", ctx(), id, got, want)
			}
		}
	}
	// Every check must have been driven to both verdicts, often.
	for _, check := range []string{"CheckAll", "CheckOrdering", "CheckPersistedClosed", "CheckAtomicity"} {
		for _, v := range []string{" ok", " violation"} {
			if verdicts[check+v] < 200 {
				t.Errorf("%s%s only %d times: %v", check, v, verdicts[check+v], verdicts)
			}
		}
	}
}

// TestNewGraphRejectsMalformedHistories: the dense index needs each
// history to be one core's contiguous run with sorted write sets, and
// each core to appear once.
func TestNewGraphRejectsMalformedHistories(t *testing.T) {
	ok := summary(0, 3, true, map[mem.Line]mem.Version{1: 10})
	for name, h := range map[string][][]epoch.Summary{
		"gap":         {{ok, summary(0, 5, true, nil)}},
		"mixed cores": {{ok, summary(1, 4, true, nil)}},
		"twice":       {{ok}, {summary(0, 4, true, nil)}},
		"invalid":     {{summary(-1, 0, true, nil)}},
		"unsorted": {{ok, {ID: epoch.ID{Core: 0, Num: 4}, Writes: epoch.WriteSet{
			{Line: 5, Version: 11}, {Line: 2, Version: 12}}}}},
	} {
		if _, err := NewGraph(h); err == nil {
			t.Errorf("%s: malformed history accepted", name)
		}
	}
	if _, err := NewGraph([][]epoch.Summary{{ok, summary(0, 4, false, nil)}, nil, {summary(2, 7, false, nil)}}); err != nil {
		t.Fatalf("well-formed history rejected: %v", err)
	}
}
