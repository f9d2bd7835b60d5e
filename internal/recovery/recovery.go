// Package recovery verifies crash consistency of the simulated NVRAM
// image against the persistency model's guarantees, and implements the
// undo-log rollback that bulk-mode BSP (§5.2.1) performs on recovery.
//
// The simulator never stores data bytes: every store has a globally unique,
// monotonically increasing version, the NVRAM shadow image maps lines to
// the version that is durable, and each epoch's history records the final
// version it wrote to each line. Because a line can only be rewritten
// after the epoch that previously wrote it has persisted (the conflict
// rules of §3), "image[L] >= v" is exactly the statement "version v of L,
// or a legitimately later one, is durable".
package recovery

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
)

// Graph is the happens-before relation over epochs: per-core program order
// plus recorded inter-thread dependence edges (IDT registers and
// online-enforced orderings), and any edges the application adds.
//
// Epochs are indexed densely: cores in ascending ID order, each core's
// history contiguous from its first epoch number, so index order is
// (core, number) order. Program order is implicit — index i-1 precedes i
// when both belong to one core — and every other edge lives in flat
// adjacency arrays. No check hashes an epoch ID. A Graph is not safe for
// concurrent use.
type Graph struct {
	sums  []*epoch.Summary // by index
	start []bool           // start[i]: i is its core's first epoch
	cores []coreRange      // ascending core ID
	// head[i] is i's newest entry in edges, -1 when i has none; each
	// entry links to the next older one.
	head  []int32
	edges []edge
	// byVersion maps each written version to its writer's index. Only
	// WriterOf and Rollback need it, so it is built on first use.
	byVersion map[mem.Version]int32
}

// coreRange locates one core's history: epoch first+k has index base+k.
type coreRange struct {
	core    int
	first   uint64
	base, n int32
}

// edge is one non-program-order predecessor of an epoch.
type edge struct {
	pred, next int32
}

// NewGraph builds the happens-before graph from per-core histories. Each
// non-empty history must belong to one core, number its epochs
// contiguously, and hold write sets sorted by line; no two histories may
// share a core. The graph aliases the histories, which must not change
// while it is in use. Edges naming epochs outside the histories are
// dropped.
func NewGraph(histories [][]epoch.Summary) (*Graph, error) {
	g := &Graph{}
	n, deps := 0, 0
	for _, h := range histories {
		if len(h) == 0 {
			continue
		}
		id0 := h[0].ID
		if !id0.Valid() {
			return nil, fmt.Errorf("recovery: history of invalid epoch %v", id0)
		}
		for k := range h {
			s := &h[k]
			if s.ID.Core != id0.Core || s.ID.Num != id0.Num+uint64(k) {
				return nil, fmt.Errorf("recovery: history of core %d is not contiguous: %v at position %d", id0.Core, s.ID, k)
			}
			for j := 1; j < len(s.Writes); j++ {
				if s.Writes[j-1].Line >= s.Writes[j].Line {
					return nil, fmt.Errorf("recovery: write set of %v is not sorted by line", s.ID)
				}
			}
			deps += len(s.Deps)
		}
		n += len(h)
		g.cores = append(g.cores, coreRange{core: id0.Core, first: id0.Num, n: int32(len(h))})
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("recovery: %d epochs exceed the graph's index range", n)
	}
	slices.SortFunc(g.cores, func(a, b coreRange) int { return cmp.Compare(a.core, b.core) })
	base := int32(0)
	for i := range g.cores {
		if i > 0 && g.cores[i].core == g.cores[i-1].core {
			return nil, fmt.Errorf("recovery: two histories for core %d", g.cores[i].core)
		}
		g.cores[i].base = base
		base += g.cores[i].n
	}
	g.sums = make([]*epoch.Summary, n)
	g.start = make([]bool, n)
	for _, h := range histories {
		if len(h) == 0 {
			continue
		}
		cr, _ := g.core(h[0].ID.Core)
		g.start[cr.base] = true
		for k := range h {
			g.sums[cr.base+int32(k)] = &h[k]
		}
	}
	g.head = make([]int32, n)
	g.edges = make([]edge, 0, deps)
	for i, s := range g.sums {
		g.head[i] = -1
		for _, d := range s.Deps {
			if p, ok := g.index(d); ok {
				g.link(int32(i), p)
			}
		}
	}
	return g, nil
}

func (g *Graph) core(c int) (coreRange, bool) {
	k, ok := slices.BinarySearchFunc(g.cores, c, func(cr coreRange, c int) int { return cmp.Compare(cr.core, c) })
	if !ok {
		return coreRange{}, false
	}
	return g.cores[k], true
}

// index returns id's dense index, if id is in the graph.
func (g *Graph) index(id epoch.ID) (int32, bool) {
	cr, ok := g.core(id.Core)
	if !ok || id.Num < cr.first || id.Num-cr.first >= uint64(cr.n) {
		return 0, false
	}
	return cr.base + int32(id.Num-cr.first), true
}

// progPred returns i's program-order predecessor, or -1 for the first
// epoch of a core.
func (g *Graph) progPred(i int32) int32 {
	if g.start[i] {
		return -1
	}
	return i - 1
}

// eachPred calls f on each direct predecessor of i until f returns
// false, and reports whether it never did.
func (g *Graph) eachPred(i int32, f func(p int32) bool) bool {
	if p := g.progPred(i); p >= 0 && !f(p) {
		return false
	}
	for k := g.head[i]; k >= 0; k = g.edges[k].next {
		if !f(g.edges[k].pred) {
			return false
		}
	}
	return true
}

func (g *Graph) link(later, earlier int32) {
	g.edges = append(g.edges, edge{pred: earlier, next: g.head[later]})
	g.head[later] = int32(len(g.edges) - 1)
}

// Len returns the number of epochs in the graph.
func (g *Graph) Len() int { return len(g.sums) }

// AddEdge records an externally known happens-before edge: earlier must
// persist before later. Application layers (e.g. a KV store that knows
// its publish order per bucket) use this to strengthen the graph with
// dependences the hardware histories may have resolved without a
// register. Edges naming unknown epochs, self edges and edges already in
// the graph are ignored.
func (g *Graph) AddEdge(later, earlier epoch.ID) {
	l, ok1 := g.index(later)
	e, ok2 := g.index(earlier)
	if !ok1 || !ok2 || l == e || g.progPred(l) == e {
		return
	}
	for k := g.head[l]; k >= 0; k = g.edges[k].next {
		if g.edges[k].pred == e {
			return
		}
	}
	g.link(l, e)
}

// Predecessors returns the transitive happens-before predecessors of id
// (not including id) in (core, number) order.
func (g *Graph) Predecessors(id epoch.ID) []epoch.ID {
	i, ok := g.index(id)
	if !ok {
		return nil
	}
	var preds []int32
	newWalker(len(g.sums)).ancestors(g, i, func(p int32) { preds = append(preds, p) })
	slices.Sort(preds) // index order is (core, number) order
	out := make([]epoch.ID, len(preds))
	for k, p := range preds {
		out[k] = g.sums[p].ID
	}
	return out
}

// writer returns the index of the epoch that wrote version v; should
// several have, the highest index.
func (g *Graph) writer(v mem.Version) (int32, bool) {
	if g.byVersion == nil {
		writes := 0
		for _, s := range g.sums {
			writes += len(s.Writes)
		}
		g.byVersion = make(map[mem.Version]int32, writes)
		for i, s := range g.sums {
			for _, w := range s.Writes {
				g.byVersion[w.Version] = int32(i)
			}
		}
	}
	i, ok := g.byVersion[v]
	return i, ok
}

// WriterOf returns the epoch that produced a version, if known.
func (g *Graph) WriterOf(v mem.Version) (epoch.ID, bool) {
	i, ok := g.writer(v)
	if !ok {
		return epoch.ID{}, false
	}
	return g.sums[i].ID, true
}

// walker runs depth-first searches over the graph's predecessor edges,
// stamping visits with a per-search generation so its buffers are reused
// across searches without clearing.
type walker struct {
	seen  []int32
	gen   int32
	stack []int32
}

func newWalker(n int) *walker { return &walker{seen: make([]int32, n)} }

// ancestors visits every transitive predecessor of i once; i itself is
// never visited, even on a cycle.
func (w *walker) ancestors(g *Graph, i int32, visit func(p int32)) {
	w.gen++
	w.seen[i] = w.gen
	stack := w.stack[:0]
	push := func(p int32) bool {
		if w.seen[p] != w.gen {
			w.seen[p] = w.gen
			stack = append(stack, p)
		}
		return true
	}
	g.eachPred(i, push)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(p)
		g.eachPred(p, push)
	}
	w.stack = stack[:0]
}

// lowest returns the lowest-index transitive predecessor of i for which
// bad holds, or -1.
func (w *walker) lowest(g *Graph, i int32, bad func(p int32) bool) int32 {
	low := int32(-1)
	w.ancestors(g, i, func(p int32) {
		if bad(p) && (low < 0 || p < low) {
			low = p
		}
	})
	return low
}

// Durability is a graph evaluated against one NVRAM image. One pass over
// every epoch's write set records which epochs left a footprint in the
// image (one of their own versions is the durable one for its line) and
// which are fully durable in it (every final write reflected, possibly
// superseded by a later version, which the conflict rules only permit
// after the epoch persisted). Every check reads those two flags.
type Durability struct {
	g       *Graph
	image   map[mem.Line]mem.Version
	touched []bool
	durable []bool
}

// Durability evaluates the graph against image.
func (g *Graph) Durability(image map[mem.Line]mem.Version) *Durability {
	n := len(g.sums)
	flags := make([]bool, 2*n)
	d := &Durability{g: g, image: image, touched: flags[:n], durable: flags[n:]}
	for i, s := range g.sums {
		hit, full := false, true
		for _, w := range s.Writes {
			switch v := image[w.Line]; {
			case v == w.Version:
				hit = true
			case v < w.Version:
				full = false
			}
		}
		d.touched[i], d.durable[i] = hit, full
	}
	return d
}

// missing returns epoch i's lowest line whose final write is not durable.
func (d *Durability) missing(i int32) mem.Line {
	for _, w := range d.g.sums[i].Writes {
		if d.image[w.Line] < w.Version {
			return w.Line
		}
	}
	return 0
}

// OrderingViolation describes a broken persist-order constraint.
type OrderingViolation struct {
	Later   epoch.ID // epoch with a durable footprint
	Earlier epoch.ID // happens-before predecessor that is not fully durable
	Line    mem.Line // a missing line of Earlier
}

// Error implements error.
func (v *OrderingViolation) Error() string {
	return fmt.Sprintf("recovery: %v has durable data but predecessor %v is missing %v",
		v.Later, v.Earlier, v.Line)
}

// requiredDurable reports whether every epoch the ordering invariant
// obliges to be fully durable — the transitive happens-before
// predecessors of every epoch with a durable footprint — is. One reverse
// closure over the whole graph, O(epochs + edges).
func (d *Durability) requiredDurable() bool {
	g := d.g
	required := make([]bool, len(g.sums))
	stack := make([]int32, 0, len(g.sums))
	push := func(p int32) bool {
		if !required[p] {
			required[p] = true
			stack = append(stack, p)
		}
		return d.durable[p]
	}
	for i := range g.sums {
		if d.touched[i] && !g.eachPred(int32(i), push) {
			return false
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.eachPred(p, push) {
			return false
		}
	}
	return true
}

// CheckOrdering verifies the fundamental epoch-ordering invariant of every
// buffered persistency model: if any line of epoch E is durable, every
// epoch that happens-before E is fully durable. It returns the violation
// at the lowest (core, number) epoch with a durable footprint, naming its
// lowest non-durable predecessor and that epoch's lowest missing line, or
// nil.
//
// Clean images — the overwhelmingly common case — are decided by the
// linear-time closure alone; only when it finds a failure does the
// per-epoch scan run to produce the deterministic violation.
func (d *Durability) CheckOrdering() error {
	if d.requiredDurable() {
		return nil
	}
	g := d.g
	w := newWalker(len(g.sums))
	notDurable := func(p int32) bool { return !d.durable[p] }
	for i := range g.sums {
		if !d.touched[i] {
			continue
		}
		if p := w.lowest(g, int32(i), notDurable); p >= 0 {
			return &OrderingViolation{Later: g.sums[i].ID, Earlier: g.sums[p].ID, Line: d.missing(p)}
		}
	}
	return nil
}

// CheckPersistedClosed verifies that the set of epochs the hardware
// declared persisted is downward-closed under happens-before and fully
// durable in the image.
//
// The screening checks each persisted epoch's durability and its DIRECT
// predecessors' flags — sufficient, because a set closed under direct
// predecessors is closed under the transitive relation by induction over
// the DAG. Only on failure does the per-epoch scan run, reporting the
// lowest persisted epoch at fault and its lowest unpersisted predecessor.
func (d *Durability) CheckPersistedClosed() error {
	g := d.g
	persisted := func(p int32) bool { return g.sums[p].PersistedFlag }
	clean := true
	for i, s := range g.sums {
		if s.PersistedFlag && (!d.durable[i] || !g.eachPred(int32(i), persisted)) {
			clean = false
			break
		}
	}
	if clean {
		return nil
	}
	w := newWalker(len(g.sums))
	unpersisted := func(p int32) bool { return !persisted(p) }
	for i, s := range g.sums {
		if !s.PersistedFlag {
			continue
		}
		if !d.durable[i] {
			return fmt.Errorf("recovery: epoch %v declared persisted but line %v is not durable", s.ID, d.missing(int32(i)))
		}
		if p := w.lowest(g, int32(i), unpersisted); p >= 0 {
			return fmt.Errorf("recovery: persisted epoch %v has unpersisted predecessor %v", s.ID, g.sums[p].ID)
		}
	}
	return nil
}

// CheckAtomicity verifies that an image — a recovered one, after
// Rollback — reflects whole epochs only: no line's version belongs to an
// epoch that is not fully reflected. This is the BSP guarantee.
func (d *Durability) CheckAtomicity() error {
	for i, s := range d.g.sums {
		if d.touched[i] && !d.durable[i] {
			return fmt.Errorf("recovery: epoch %v is partially reflected after rollback (line %v missing)", s.ID, d.missing(int32(i)))
		}
	}
	return nil
}

// Rollback applies the durable undo log to the crash image, restoring the
// pre-epoch value of every line whose durable version belongs to an epoch
// the hardware had not declared persisted — the §5.2.1 recovery step that
// makes bulk-mode BSP epochs atomic. It returns the recovered image.
func Rollback(g *Graph, image map[mem.Line]mem.Version, log []nvram.LogEntry) map[mem.Line]mem.Version {
	recovered := make(map[mem.Line]mem.Version, len(image))
	lines := make([]mem.Line, 0, len(image))
	for l, v := range image {
		recovered[l] = v
		lines = append(lines, l)
	}
	slices.Sort(lines)
	// Index undo entries by (epoch, line); last entry wins (there is at
	// most one per epoch+line by construction). Entries of epochs outside
	// the graph can never match a writer and are dropped.
	type key struct {
		idx  int32
		line mem.Line
	}
	undo := make(map[key]mem.Version, len(log))
	for _, e := range log {
		if i, ok := g.index(epoch.ID{Core: e.EpochCore, Num: e.EpochNum}); ok {
			undo[key{i, e.Line}] = e.Old
		}
	}
	// Repeatedly roll back lines whose durable version came from an
	// unpersisted epoch. Old values may themselves need further rollback
	// in pathological orders, so iterate to a fixed point; each step
	// strictly decreases some line's version, so it terminates.
	for changed := true; changed; {
		changed = false
		for _, l := range lines {
			v := recovered[l]
			if v == mem.NoVersion {
				continue
			}
			w, known := g.writer(v)
			if !known || g.sums[w].PersistedFlag {
				continue
			}
			if old, ok := undo[key{w, l}]; ok {
				recovered[l] = old
				changed = true
			}
		}
	}
	return recovered
}

// CheckAll runs the ordering and closure checks, and — when an undo log is
// supplied — rollback plus the atomicity check. It is the one-call entry
// point used by tests and the harness.
func CheckAll(histories [][]epoch.Summary, image map[mem.Line]mem.Version, log []nvram.LogEntry, withRollback bool) error {
	g, err := NewGraph(histories)
	if err != nil {
		return err
	}
	d := g.Durability(image)
	if err := d.CheckOrdering(); err != nil {
		return err
	}
	if err := d.CheckPersistedClosed(); err != nil {
		return err
	}
	if withRollback {
		if err := g.Durability(Rollback(g, image, log)).CheckAtomicity(); err != nil {
			return err
		}
	}
	return nil
}
