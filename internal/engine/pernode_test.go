package engine

import (
	"math"
	"reflect"
	"testing"
)

// absOffset is the offset of an arrival d into a window starting at
// start, measured back from its rounded absolute time.
func absOffset(start, d float64) float64 {
	t := start + d
	return t - start
}

// TestResolveWindowTies pins the per-node scan to the ordering rule of
// the time-ordered event queue it replaced: arrivals fire by rounded
// absolute time start+d, equal times in scheduling order (node index,
// a node's fail-stop before its silent error); the first of each kind
// wins; the fail-stop offset is (start+d)−start; and the fault clock
// runs to start+span after every window. Each case is a sequence of
// windows sharing one clock; the expected outcomes were derived by
// hand from that rule.
func TestResolveWindowTies(t *testing.T) {
	inf := math.Inf(1)
	none := Outcome{FailStopAt: inf, FailNode: -1, SilentNode: -1}
	type window struct {
		now, span, silentSpan float64
		failAt, silentAt      []float64
		want                  Outcome
		wantClock             float64
	}
	// At start 1024 one ulp is 2^-42, so these two delays differ but
	// round to the same absolute time.
	late, early := 0.5+1e-14, 0.5
	cases := []struct {
		name    string
		windows []window
	}{
		{"equal rounded times across nodes lowest index wins", []window{{
			now: 1024, span: 10, silentSpan: 8,
			failAt: []float64{late, early}, silentAt: []float64{inf, inf},
			want:      Outcome{FailStop: true, FailStopAt: 0.5, FailNode: 0, SilentNode: -1},
			wantClock: 1034,
		}}},
		{"equal rounded silent times across nodes", []window{{
			now: 1024, span: 10, silentSpan: 8,
			failAt: []float64{inf, inf, inf}, silentAt: []float64{inf, late, early},
			want:      Outcome{FailStopAt: inf, FailNode: -1, Silent: true, SilentNode: 1},
			wantClock: 1034,
		}}},
		{"earlier absolute time beats lower index", []window{{
			now: 0, span: 10, silentSpan: 8,
			failAt: []float64{3, 2}, silentAt: []float64{1.5, 1},
			want:      Outcome{FailStop: true, FailStopAt: 2, FailNode: 1, SilentNode: -1},
			wantClock: 10,
		}}},
		{"fail-stop and silent on one node at one time", []window{{
			now: 5, span: 10, silentSpan: 8,
			failAt: []float64{2, inf}, silentAt: []float64{2, 1},
			want:      Outcome{FailStop: true, FailStopAt: 2, FailNode: 0, SilentNode: -1},
			wantClock: 15,
		}}},
		{"offset measured from the rounded absolute time", []window{{
			now: 1024, span: 10, silentSpan: 8,
			failAt: []float64{0.1}, silentAt: []float64{inf},
			want:      Outcome{FailStop: true, FailStopAt: absOffset(1024, 0.1), FailNode: 0, SilentNode: -1},
			wantClock: 1034,
		}}},
		{"rounding pushes a fail-stop onto the window end", []window{{
			now: 1024, span: 1, silentSpan: 1,
			failAt: []float64{1 - 1e-14}, silentAt: []float64{0.25},
			want:      Outcome{FailStopAt: 1, FailNode: 0, Silent: true, SilentNode: 0},
			wantClock: 1025,
		}}},
		{"arrivals at or past their span do not count", []window{{
			now: 0, span: 10, silentSpan: 8,
			failAt: []float64{10, 11}, silentAt: []float64{8, 9},
			want: none, wantClock: 10,
		}}},
		{"zero-rate node never strikes", []window{{
			now: 0, span: 10, silentSpan: 8,
			failAt: []float64{inf, 4}, silentAt: []float64{inf, inf},
			want:      Outcome{FailStop: true, FailStopAt: 4, FailNode: 1, SilentNode: -1},
			wantClock: 10,
		}}},
		{"window after a fail-stop starts at the fault clock", []window{
			{
				now: 100, span: 10, silentSpan: 8,
				failAt: []float64{inf, 3}, silentAt: []float64{inf, inf},
				want:      Outcome{FailStop: true, FailStopAt: 3, FailNode: 1, SilentNode: -1},
				wantClock: 110,
			},
			{
				// The app resumed at 100+3+R(=4) = 107 < 110: the window
				// starts at 110, and offsets count from there.
				now: 107, span: 10, silentSpan: 8,
				failAt: []float64{2, inf}, silentAt: []float64{inf, inf},
				want:      Outcome{FailStop: true, FailStopAt: 2, FailNode: 0, SilentNode: -1},
				wantClock: 120,
			},
			{
				// An app clock past the fault clock pulls it forward.
				now: 130, span: 10, silentSpan: 8,
				failAt: []float64{inf, inf}, silentAt: []float64{inf, 7.5},
				want:      Outcome{FailStopAt: inf, FailNode: -1, Silent: true, SilentNode: 1},
				wantClock: 140,
			},
		}},
		{"fail-stop-only pass ignores silent draws", []window{{
			now: 0, span: 10,
			failAt: []float64{6, 5}, silentAt: nil,
			want:      Outcome{FailStop: true, FailStopAt: 5, FailNode: 1, SilentNode: -1},
			wantClock: 10,
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := 0.0
			for k, w := range tc.windows {
				var got Outcome
				got, clock = resolveWindow(clock, w.now, w.span, w.silentSpan, w.failAt, w.silentAt)
				if !reflect.DeepEqual(got, w.want) {
					t.Errorf("window %d: got %+v, want %+v", k, got, w.want)
				}
				if clock != w.wantClock {
					t.Errorf("window %d: clock %v, want %v", k, clock, w.wantClock)
				}
			}
		})
	}
}

// TestPerNodeResetMatchesNew pins the pooled reset to a fresh
// construction under the concatenated prefix: same per-node streams,
// same corruption stream, zeroed clock and counts — including after
// the scratch served a larger node set.
func TestPerNodeResetMatchesNew(t *testing.T) {
	nodes := UniformNodes(3, 4e-2, 2e-2)
	nodes[1].FailStopRate = 0 // a zero-rate channel draws nothing
	var pooled PerNodeFaults
	pooled.resetIndexed(UniformNodes(5, 1e-2, 1e-2), 1, "scenario/", 1)
	pooled.SampleWindow(0, 50, 40)
	pooled.NoteSilent(4)

	pooled.resetIndexed(nodes, 42, "scenario/", 17)
	fresh, err := NewPerNodeFaults(nodes, 42, "scenario/17")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		now := float64(k) * 7
		a, b := pooled.SampleWindow(now, 30, 25), fresh.SampleWindow(now, 30, 25)
		if a != b {
			t.Fatalf("window %d: pooled %+v, fresh %+v", k, a, b)
		}
		if a.FailStop {
			pooled.NoteFailStop(a.FailNode)
			fresh.NoteFailStop(b.FailNode)
		}
		at1, n1, hit1 := pooled.SampleFailStop(now, 12)
		at2, n2, hit2 := fresh.SampleFailStop(now, 12)
		if at1 != at2 || n1 != n2 || hit1 != hit2 {
			t.Fatalf("fail-stop pass %d: pooled (%v,%d,%v), fresh (%v,%d,%v)", k, at1, n1, hit1, at2, n2, hit2)
		}
		s1, ok1 := pooled.SampleSilent(9)
		s2, ok2 := fresh.SampleSilent(9)
		if s1 != s2 || ok1 != ok2 {
			t.Fatalf("silent pass %d: pooled (%d,%v), fresh (%d,%v)", k, s1, ok1, s2, ok2)
		}
	}
	x, y := make([]byte, 64), make([]byte, 64)
	pooled.Corrupt(x)
	fresh.Corrupt(y)
	if !reflect.DeepEqual(x, y) || !reflect.DeepEqual(pooled.PerNodeErrors(), fresh.PerNodeErrors()) {
		t.Fatalf("corruption or counts diverged: %v/%v, %v/%v", x, y, pooled.PerNodeErrors(), fresh.PerNodeErrors())
	}
}
