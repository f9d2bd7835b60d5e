package cache

import (
	"testing"
	"testing/quick"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Sets: 2, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func e(core int, num uint64) epoch.ID { return epoch.ID{Core: core, Num: num} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Sets: 0, Ways: 4}); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := small(t)
	if _, ok := c.Lookup(4); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(4, false, epoch.None, 0)
	ent, ok := c.Lookup(4)
	if !ok || ent.Line != 4 || ent.Dirty {
		t.Fatalf("lookup after insert: %+v ok=%v", ent, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSetIndexingSeparatesSets(t *testing.T) {
	c := small(t) // 2 sets: even lines -> set 0, odd -> set 1
	c.Insert(0, false, epoch.None, 0)
	c.Insert(2, false, epoch.None, 0)
	// Set 0 is now full; inserting line 4 must evict, but line 1 (set 1)
	// must not.
	if _, evicted := c.Insert(1, false, epoch.None, 0); evicted {
		t.Fatal("insert into empty set evicted")
	}
	if _, evicted := c.Insert(4, false, epoch.None, 0); !evicted {
		t.Fatal("insert into full set did not evict")
	}
}

func TestIndexShift(t *testing.T) {
	c := MustNew(Config{Name: "b", Sets: 2, Ways: 1, IndexShift: 2})
	// With shift 2: lines 0..3 -> set 0, lines 4..7 -> set 1.
	c.Insert(0, false, epoch.None, 0)
	if _, evicted := c.Insert(4, false, epoch.None, 0); evicted {
		t.Fatal("lines 0 and 4 collided despite index shift")
	}
	if _, evicted := c.Insert(2, false, epoch.None, 0); !evicted {
		t.Fatal("lines 0 and 2 did not collide with shift 2")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	c.Insert(0, false, epoch.None, 0) // set 0
	c.Insert(2, false, epoch.None, 0) // set 0
	c.Lookup(0)                       // make line 0 most recent
	ev, evicted := c.Insert(4, false, epoch.None, 0)
	if !evicted || ev.Line != 2 {
		t.Fatalf("evicted %+v (evicted=%v), want line 2", ev, evicted)
	}
}

func TestVictimPreviewMatchesInsert(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 5), 10)
	c.Insert(2, false, epoch.None, 0)
	v, full := c.Victim(4)
	if !full {
		t.Fatal("full set reported free")
	}
	ev, evicted := c.Insert(4, false, epoch.None, 0)
	if !evicted || ev != v {
		t.Fatalf("Insert evicted %+v, Victim previewed %+v", ev, v)
	}
}

func TestVictimPrefersCleanOverDirtyTagged(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 1), 1) // dirty, tagged, older LRU
	c.Insert(2, false, epoch.None, 0)
	v, full := c.Victim(4)
	if !full || v.Line != 2 {
		t.Fatalf("victim = %+v, want clean line 2 despite LRU", v)
	}
}

func TestVictimPrefersUntaggedDirtyOverTagged(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 1), 1)    // dirty tagged (unpersisted epoch)
	c.Insert(2, true, epoch.None, 2) // dirty untagged (epoch persisted)
	v, full := c.Victim(4)
	if !full || v.Line != 2 {
		t.Fatalf("victim = %+v, want untagged dirty line 2", v)
	}
}

func TestVictimReportsFreeWay(t *testing.T) {
	c := small(t)
	c.Insert(0, false, epoch.None, 0)
	if _, full := c.Victim(2); full {
		t.Fatal("set with a free way reported full")
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := small(t)
	c.Insert(4, false, epoch.None, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	c.Insert(4, false, epoch.None, 0)
}

func TestWriteTagsAndBookkeeps(t *testing.T) {
	c := small(t)
	c.Insert(4, false, epoch.None, 0)
	prev := c.Write(4, e(2, 7), 33)
	if prev.Dirty {
		t.Fatal("previous state reported dirty")
	}
	ent, _ := c.Peek(4)
	if !ent.Dirty || ent.Tag != e(2, 7) || ent.Version != 33 {
		t.Fatalf("after write: %+v", ent)
	}
	lines := c.AppendLinesOf(nil, e(2, 7))
	if len(lines) != 1 || lines[0] != 4 {
		t.Fatalf("AppendLinesOf = %v", lines)
	}
}

func TestWriteMovesLineBetweenEpochs(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 1)
	c.Write(4, e(1, 3), 2)
	if n := c.EpochLineCount(e(1, 1)); n != 0 {
		t.Fatalf("old epoch still has %d lines", n)
	}
	if n := c.EpochLineCount(e(1, 3)); n != 1 {
		t.Fatalf("new epoch has %d lines, want 1", n)
	}
}

func TestWriteNonResidentPanics(t *testing.T) {
	c := small(t)
	defer func() {
		if recover() == nil {
			t.Error("write of non-resident line did not panic")
		}
	}()
	c.Write(4, e(1, 1), 1)
}

func TestCleanLineKeepsDataDropsTag(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 9)
	c.CleanLine(4)
	ent, ok := c.Peek(4)
	if !ok {
		t.Fatal("clwb-style clean removed the line")
	}
	if ent.Dirty || ent.Tag.Valid() {
		t.Fatalf("after clean: %+v", ent)
	}
	if ent.Version != 9 {
		t.Fatalf("clean lost the version: %+v", ent)
	}
	if c.EpochLineCount(e(1, 1)) != 0 {
		t.Fatal("epoch bookkeeping kept a cleaned line")
	}
	c.CleanLine(99) // absent line: no-op
}

func TestInvalidateRemovesLine(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 9)
	ent, ok := c.Invalidate(4)
	if !ok || ent.Version != 9 {
		t.Fatalf("invalidate returned %+v ok=%v", ent, ok)
	}
	if c.Contains(4) {
		t.Fatal("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(4); ok {
		t.Fatal("double invalidate reported a drop")
	}
}

func TestRetagForEpochSplit(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 5), 1)
	c.Insert(2, true, e(1, 5), 2)
	c.Retag(0, e(1, 5), e(1, 6))
	if c.EpochLineCount(e(1, 5)) != 1 || c.EpochLineCount(e(1, 6)) != 1 {
		t.Fatalf("split bookkeeping wrong: %d / %d",
			c.EpochLineCount(e(1, 5)), c.EpochLineCount(e(1, 6)))
	}
	// Retag with mismatched 'from' is a no-op.
	c.Retag(2, e(9, 9), e(1, 6))
	if c.EpochLineCount(e(1, 5)) != 1 {
		t.Fatal("mismatched retag moved a line")
	}
}

func TestLinesOfDeterministicOrder(t *testing.T) {
	c := MustNew(Config{Name: "big", Sets: 64, Ways: 4})
	for _, l := range []mem.Line{192, 0, 64, 128} {
		c.Insert(l, true, e(1, 1), 1)
	}
	lines := c.AppendLinesOf(nil, e(1, 1))
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("AppendLinesOf not sorted: %v", lines)
		}
	}
}

func TestEvictionDropsEpochBookkeeping(t *testing.T) {
	c := MustNew(Config{Name: "tiny", Sets: 1, Ways: 1})
	c.Insert(0, true, e(1, 1), 1)
	c.Insert(1, false, epoch.None, 0) // evicts line 0
	if c.EpochLineCount(e(1, 1)) != 0 {
		t.Fatal("evicted line still in epoch bookkeeping")
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatalf("DirtyEvicts = %d, want 1", c.Stats().DirtyEvicts)
	}
}

func TestDirtyLinesSnapshot(t *testing.T) {
	c := MustNew(Config{Name: "big", Sets: 64, Ways: 4})
	c.Insert(5, true, e(0, 1), 1)
	c.Insert(3, true, e(0, 1), 2)
	c.Insert(9, false, epoch.None, 0)
	d := c.DirtyLines()
	if len(d) != 2 || d[0].Line != 3 || d[1].Line != 5 {
		t.Fatalf("DirtyLines = %+v", d)
	}
}

// Property: epoch bookkeeping always agrees with a full scan of the array.
func TestEpochBookkeepingConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "p", Sets: 4, Ways: 2})
		tags := []epoch.ID{e(0, 1), e(0, 2), e(1, 1), epoch.None}
		for _, op := range ops {
			line := mem.Line(op % 16)
			tag := tags[(op>>4)%4]
			switch (op >> 6) % 4 {
			case 0:
				if !c.Contains(line) {
					c.Insert(line, tag.Valid(), tag, mem.Version(op))
				}
			case 1:
				if c.Contains(line) {
					c.Write(line, tag, mem.Version(op))
				}
			case 2:
				c.CleanLine(line)
			case 3:
				c.Invalidate(line)
			}
		}
		// Verify bookkeeping against a scan.
		counts := map[epoch.ID]int{}
		for _, ent := range c.DirtyLines() {
			if ent.Tag.Valid() {
				counts[ent.Tag]++
			}
		}
		for _, tag := range tags[:3] {
			if counts[tag] != c.EpochLineCount(tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
