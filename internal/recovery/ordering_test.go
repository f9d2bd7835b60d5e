package recovery

import (
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

// violationGraph builds a multi-core history with violations planted at
// chosen epoch indices (core*perCore + number): each planted epoch's write
// is durable while its program predecessor's line is missing from the
// image.
func violationGraph(cores, perCore int, planted map[int]bool) ([][]epoch.Summary, map[mem.Line]mem.Version) {
	image := make(map[mem.Line]mem.Version)
	var hist [][]epoch.Summary
	v := mem.Version(1)
	line := mem.Line(1)
	for c := 0; c < cores; c++ {
		var h []epoch.Summary
		for n := 0; n < perCore; n++ {
			writes := map[mem.Line]mem.Version{line: v}
			if planted[c*perCore+n] && n > 0 {
				// The predecessor's line is dropped from the image while
				// this epoch's write is durable.
				delete(image, mem.Line(line-1))
			}
			image[line] = v
			h = append(h, summary(c, uint64(n), false, writes))
			v++
			line++
		}
		hist = append(hist, h)
	}
	return hist, image
}

// TestCheckOrderingPlantedViolations: the checker must accept the clean
// image and, with violations planted, report exactly the one at the
// lowest epoch index — its program predecessor and that epoch's missing
// line — agreeing with the brute-force reference.
func TestCheckOrderingPlantedViolations(t *testing.T) {
	for _, tc := range []struct {
		planted map[int]bool
		want    string
	}{
		{nil, ""},
		{map[int]bool{17: true}, "recovery: E1.7 has durable data but predecessor E1.6 is missing line@0x440"},
		{map[int]bool{5: true, 23: true, 38: true}, "recovery: E0.5 has durable data but predecessor E0.4 is missing line@0x140"},
	} {
		hist, image := violationGraph(4, 10, tc.planted)
		got := errString(checkOrdering(mustGraph(t, hist), image))
		if got != tc.want {
			t.Fatalf("planted %v: got %q, want %q", tc.planted, got, tc.want)
		}
		if ref := newRef(hist, nil).ordering(image); ref != got {
			t.Fatalf("planted %v: checker %q, reference %q", tc.planted, got, ref)
		}
	}
}

// TestCheckOrderingLargeClean runs the closure on a graph larger than the
// small cases, clean and with one violation planted at its very end.
func TestCheckOrderingLargeClean(t *testing.T) {
	hist, image := violationGraph(8, 64, nil)
	if err := checkOrdering(mustGraph(t, hist), image); err != nil {
		t.Fatalf("clean graph rejected: %v", err)
	}
	hist, image = violationGraph(8, 64, map[int]bool{8*64 - 1: true})
	want := "recovery: E7.63 has durable data but predecessor E7.62 is missing line@0x7fc0"
	if got := errString(checkOrdering(mustGraph(t, hist), image)); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

var benchSink error

// BenchmarkCheckOrdering times the clean-image check, graph evaluation
// included.
func BenchmarkCheckOrdering(b *testing.B) {
	hist, image := violationGraph(8, 128, nil)
	g := mustGraph(b, hist)
	for b.Loop() {
		benchSink = checkOrdering(g, image)
	}
}
