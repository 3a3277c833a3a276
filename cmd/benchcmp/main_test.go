package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countRun is `go test -bench -count=5` output for two benchmarks.
const countRun = `goos: linux
pkg: respeed/internal/engine
BenchmarkFast-2   	100	  110 ns/op	 16 B/op	 1 allocs/op
BenchmarkFast-2   	100	  100 ns/op	 16 B/op	 1 allocs/op
BenchmarkFast-2   	100	  140 ns/op	 16 B/op	 1 allocs/op
BenchmarkFast-2   	100	  90 ns/op	 16 B/op	 1 allocs/op
BenchmarkFast-2   	100	  120 ns/op	 16 B/op	 1 allocs/op
BenchmarkSub/nodes-4-2 	10	 1000 ns/op
BenchmarkSub/nodes-4-2 	10	 1200 ns/op
PASS
`

func TestParseCountSummarizesMedianAndQuartiles(t *testing.T) {
	ms, err := parseBenchOutput(strings.NewReader(countRun))
	if err != nil {
		t.Fatal(err)
	}
	fast := ms["respeed/internal/engine.BenchmarkFast-2"]
	if fast.Runs != 5 || fast.NsPerOp != 110 || fast.NsQ1 != 100 || fast.NsQ3 != 120 ||
		fast.AllocsPerOp != 1 || fast.BytesPerOp != 16 || !fast.hasMem {
		t.Errorf("Fast summary = %+v", fast)
	}
	sub := ms["respeed/internal/engine.BenchmarkSub/nodes-4-2"]
	if sub.Runs != 2 || sub.NsPerOp != 1100 || sub.NsQ1 != 1050 || sub.NsQ3 != 1150 || sub.hasMem {
		t.Errorf("Sub summary = %+v (interpolated quartiles; no -benchmem)", sub)
	}
}

func TestReportMarksDeltaInsideSpreadAsNoise(t *testing.T) {
	ms, err := parseBenchOutput(strings.NewReader(countRun))
	if err != nil {
		t.Fatal(err)
	}
	base := &baseline{Benchmarks: []baselineRecord{
		// A single point 20 from the new median, whose IQR is 20: noise.
		{Name: "respeed/internal/engine.BenchmarkFast", NsPerOp: 130},
		// Repeated capture 900 from the new median; IQRs 200 and 100.
		{Name: "respeed/internal/engine.BenchmarkSub/nodes-4", NsPerOp: 2000, Runs: 5, NsQ1: 1900, NsQ3: 2100},
	}}
	var out bytes.Buffer
	report(&out, base, ms)
	lines := strings.Split(out.String(), "\n")
	find := func(prefix string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		t.Fatalf("no row %q in:\n%s", prefix, out.String())
		return ""
	}
	if row := find("engine.BenchmarkFast "); !strings.Contains(row, "~-15.4%") || !strings.Contains(row, "±9.1%") {
		t.Errorf("Fast row should show noise and spread: %q", row)
	}
	if row := find("engine.BenchmarkSub/nodes-4 "); !strings.Contains(row, " -45.0%") || strings.Contains(row, "~") {
		t.Errorf("Sub row should show a real delta: %q", row)
	}
	if !strings.Contains(out.String(), "1 ns/op deltas within the spread") {
		t.Errorf("summary line missing noise count:\n%s", out.String())
	}
}

func TestGateUsesMedianAllocs(t *testing.T) {
	ms, err := parseBenchOutput(strings.NewReader(countRun))
	if err != nil {
		t.Fatal(err)
	}
	ok := &baseline{Benchmarks: []baselineRecord{{Name: "respeed/internal/engine.BenchmarkFast", AllocsPerOp: 1, BytesPerOp: 16, Gate: true}}}
	if f := checkGates(ok, ms); len(f) != 0 {
		t.Errorf("within tolerance, got failures %v", f)
	}
	// 0 allocs baseline: limit 8, never exceeded by 1.
	tight := &baseline{Benchmarks: []baselineRecord{{Name: "respeed/internal/engine.BenchmarkSub/nodes-4", Gate: true}}}
	if f := checkGates(tight, ms); len(f) != 1 || !strings.Contains(f[0], "without -benchmem") {
		t.Errorf("gated row without memory columns must fail, got %v", f)
	}
}

func TestEmittedBaselineRoundTrip(t *testing.T) {
	ms, err := parseBenchOutput(strings.NewReader(countRun))
	if err != nil {
		t.Fatal(err)
	}
	recs := records(ms)
	if len(recs) != 2 || recs[0].Name != "respeed/internal/engine.BenchmarkFast" ||
		recs[1].Name != "respeed/internal/engine.BenchmarkSub/nodes-4" ||
		recs[0].Runs != 5 || recs[0].NsQ1 != 100 || recs[0].NsQ3 != 120 {
		t.Fatalf("records = %+v", recs)
	}
	doc, err := json.Marshal(baseline{Benchmarks: recs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, base, ms)
	if !strings.Contains(out.String(), "2/2 baseline benchmarks matched, 2 ns/op deltas within the spread") {
		t.Errorf("a run compared with itself must be all noise:\n%s", out.String())
	}
}

// TestOneStrayRunIsNotSpread pins why the spread is the IQR: one
// outlier run must not turn a clear 1.8x change into noise.
func TestOneStrayRunIsNotSpread(t *testing.T) {
	run := func(ns ...string) map[string]measurement {
		var b strings.Builder
		for _, v := range ns {
			b.WriteString("BenchmarkX-2 1 " + v + " ns/op\n")
		}
		ms, err := parseBenchOutput(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	old := run("9.2e6", "9.3e6", "9.4e6", "9.5e6", "9.6e6", "18e6")
	cur := run("5.0e6", "5.1e6", "5.3e6", "5.4e6", "5.5e6", "9.3e6")
	base := &baseline{Benchmarks: records(old)}
	var out bytes.Buffer
	report(&out, base, cur)
	if !strings.Contains(out.String(), "0 ns/op deltas within the spread") {
		t.Errorf("a stray run made the change look like noise:\n%s", out.String())
	}
}
