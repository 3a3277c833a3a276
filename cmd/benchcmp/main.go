// Command benchcmp compares `go test -bench` output against the
// repository's JSON benchmark baseline (BENCH_engine.json) and prints a
// per-benchmark delta table.
//
// Repeated runs (`-count=N`) are summarized per benchmark by their
// median and their spread, the interquartile range (IQR) of the runs,
// which one stray run cannot stretch. A ns/op delta is marked as noise
// ("~") when the medians differ by no more than the larger of the two
// IQRs: nothing separates the two captures. A baseline record without
// quartiles is a single point (IQR 0).
//
// Timing columns are report-only by design: ns/op from shared CI
// runners is too noisy to gate merges on, so the table in the build log
// is read by a human. The allocation and byte columns, however, are
// deterministic — after the benchmarks' own warmup they count discrete
// events, not scheduler luck — so baseline records marked "gate": true
// fail the run (exit 1) under -gate when their allocs/op or B/op
// regress beyond tolerance. Hard per-loop pins live in the test suite
// (TestRunPatternNoAllocs and friends); the gate catches the fan-out
// paths whose budgets are call-level, not loop-level.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./internal/engine/ | benchcmp -baseline BENCH_engine.json
//	benchcmp -baseline BENCH_engine.json -gate bench-output.txt
//	benchcmp -emit old-count10.txt > old.json   # the run as a baseline
//	benchcmp -baseline old.json new-count10.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Description string           `json:"description"`
	Benchmarks  []baselineRecord `json:"benchmarks"`
}

type baselineRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Runs, NsQ1 and NsQ3 record a repeated capture: NsPerOp is then
	// the median of Runs runs whose quartiles are NsQ1 and NsQ3. Zero
	// for a single-run record.
	Runs int     `json:"runs,omitempty"`
	NsQ1 float64 `json:"ns_per_op_q1,omitempty"`
	NsQ3 float64 `json:"ns_per_op_q3,omitempty"`
	// Gate marks the record as merge-gating under -gate: its alloc and
	// byte columns (never ns/op) must stay within gateTolerance of the
	// baseline.
	Gate bool `json:"gate,omitempty"`
}

// iqr is the record's ns/op interquartile range (0 for a single run).
func (b *baselineRecord) iqr() float64 {
	if b.Runs > 1 {
		return b.NsQ3 - b.NsQ1
	}
	return 0
}

// Gate tolerance: the measured value may exceed the baseline by 50%
// plus a small absolute headroom before failing. The relative slack
// absorbs rounding of per-op averages at low iteration counts; the
// absolute slack keeps near-zero baselines (4 allocs) from tripping on
// a single extra allocation of executor warmup.
const (
	gateRelTolerance   = 1.5
	gateAllocsHeadroom = 8
	gateBytesHeadroom  = 2048
)

// measurement is one result line, or the summary of a benchmark's
// runs in baseline-record form; hasMem reports -benchmem columns.
type measurement struct {
	baselineRecord
	hasMem bool
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "JSON benchmark baseline to compare against")
	gate := flag.Bool("gate", false, "fail (exit 1) when a gated benchmark's allocs/op or B/op regress beyond tolerance")
	emit := flag.Bool("emit", false, "print the run as a JSON baseline instead of comparing")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBenchOutput(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	if *emit {
		out, err := json.MarshalIndent(baseline{Benchmarks: records(current)}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		return
	}
	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	report(os.Stdout, base, current)
	if *gate {
		if failures := checkGates(base, current); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "benchcmp: GATE:", f)
			}
			os.Exit(1)
		}
		fmt.Println("benchcmp: all gated benchmarks within alloc/byte tolerance")
	}
}

// checkGates compares every gated baseline record's deterministic
// columns against the measured run. A gated benchmark that was not run
// or ran without -benchmem is itself a failure — otherwise the gate
// silently evaporates when a name changes.
func checkGates(base *baseline, current map[string]measurement) []string {
	var failures []string
	for _, b := range base.Benchmarks {
		if !b.Gate {
			continue
		}
		m, ok := lookup(current, b.Name)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark not present in run", shorten(b.Name)))
			continue
		}
		if !m.hasMem {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark ran without -benchmem", shorten(b.Name)))
			continue
		}
		if limit := b.AllocsPerOp*gateRelTolerance + gateAllocsHeadroom; m.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds gate %.0f (baseline %.0f)",
				shorten(b.Name), m.AllocsPerOp, limit, b.AllocsPerOp))
		}
		if limit := b.BytesPerOp*gateRelTolerance + gateBytesHeadroom; m.BytesPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/op exceeds gate %.0f (baseline %.0f)",
				shorten(b.Name), m.BytesPerOp, limit, b.BytesPerOp))
		}
	}
	return failures
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &b, nil
}

// records turns summarized measurements into baseline records, sorted
// by name. The -GOMAXPROCS suffix is dropped when every name carries
// the same one; a lone sub-benchmark's "-<digits>" cannot be told apart
// from it.
func records(ms map[string]measurement) []baselineRecord {
	suffix := ""
	for name := range ms {
		s := name[len(trimProcSuffix(name)):]
		if s == "" || suffix != "" && s != suffix {
			suffix = ""
			break
		}
		suffix = s
	}
	out := make([]baselineRecord, 0, len(ms))
	for name, m := range ms {
		r := m.baselineRecord
		r.Name = strings.TrimSuffix(name, suffix)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// parseBenchOutput extracts measurements from standard `go test -bench`
// output, summarizing repeated lines of one benchmark (`-count=N`) by
// their medians and ns/op quartiles. Package headers ("pkg: ...") qualify
// subsequent benchmark names, matching the fully-qualified names the
// baseline stores.
func parseBenchOutput(r io.Reader) (map[string]measurement, error) {
	runs := make(map[string][]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		// Expect: Name  N  ns ns/op [B B/op allocs allocs/op]
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if pkg != "" {
			name = pkg + "." + name
		}
		var m measurement
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, ok = v, true
			case "B/op":
				m.BytesPerOp, m.hasMem = v, true
			case "allocs/op":
				m.AllocsPerOp, m.hasMem = v, true
			}
		}
		if ok {
			runs[name] = append(runs[name], m)
		}
	}
	out := make(map[string]measurement, len(runs))
	for name, ms := range runs {
		out[name] = summarize(ms)
	}
	return out, sc.Err()
}

// summarize reduces one benchmark's runs to medians and, for repeated
// runs, the ns/op quartiles. Memory columns count only when every run
// reported them.
func summarize(ms []measurement) measurement {
	col := func(f func(measurement) float64) []float64 {
		v := make([]float64, len(ms))
		for i, m := range ms {
			v[i] = f(m)
		}
		sort.Float64s(v)
		return v
	}
	ns := col(func(m measurement) float64 { return m.NsPerOp })
	s := measurement{hasMem: true}
	s.NsPerOp = quantile(ns, 0.5)
	s.BytesPerOp = quantile(col(func(m measurement) float64 { return m.BytesPerOp }), 0.5)
	s.AllocsPerOp = quantile(col(func(m measurement) float64 { return m.AllocsPerOp }), 0.5)
	if len(ms) > 1 {
		s.Runs, s.NsQ1, s.NsQ3 = len(ms), quantile(ns, 0.25), quantile(ns, 0.75)
	}
	for _, m := range ms {
		s.hasMem = s.hasMem && m.hasMem
	}
	return s
}

// quantile of sorted, non-empty values, interpolating linearly between
// order statistics (q = 0.5 is the usual median).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// trimProcSuffix removes the -GOMAXPROCS suffix go test appends to
// benchmark names when GOMAXPROCS > 1 ("BenchmarkFoo-4" → "BenchmarkFoo").
// Sub-benchmark names may legitimately end in -<digits> (PerNodeFaults/
// nodes-4), so callers try an exact match before falling back to this.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// lookup finds the measurement for a baseline name: exact first, then
// any measured name whose proc suffix trims down to it.
func lookup(current map[string]measurement, name string) (measurement, bool) {
	if m, ok := current[name]; ok {
		return m, true
	}
	for k, m := range current {
		if trimProcSuffix(k) == name {
			return m, true
		}
	}
	return measurement{}, false
}

// row is the table layout: ns/op columns are medians, spread the new
// run's IQR as ± half of it, relative to its median.
const row = "%-62s %14s %14s %8s %10s %16s\n"

func report(w io.Writer, base *baseline, current map[string]measurement) {
	fmt.Fprintf(w, "benchcmp: comparing against baseline (%d reference benchmarks)\n", len(base.Benchmarks))
	fmt.Fprintf(w, row, "benchmark", "old ns/op", "new ns/op", "spread", "delta", "allocs old→new")
	matched, noise := 0, 0
	for _, b := range base.Benchmarks {
		m, ok := lookup(current, b.Name)
		if !ok {
			fmt.Fprintf(w, row, shorten(b.Name), fmtNs(b.NsPerOp), "-", "-", "-", "not run")
			continue
		}
		matched++
		allocs := "n/a"
		if m.hasMem {
			allocs = fmt.Sprintf("%.0f→%.0f", b.AllocsPerOp, m.AllocsPerOp)
		}
		d := delta(b.NsPerOp, m.NsPerOp)
		if (b.Runs > 1 || m.Runs > 1) && math.Abs(m.NsPerOp-b.NsPerOp) <= max(b.iqr(), m.iqr()) {
			d = "~" + d
			noise++
		}
		fmt.Fprintf(w, row, shorten(b.Name), fmtNs(b.NsPerOp), fmtNs(m.NsPerOp), spread(m), d, allocs)
	}
	for name, m := range current {
		if !inBaseline(base, name) {
			fmt.Fprintf(w, row, shorten(name), "-", fmtNs(m.NsPerOp), spread(m), "new", "")
		}
	}
	fmt.Fprintf(w, "benchcmp: %d/%d baseline benchmarks matched, %d ns/op deltas within the spread (~, noise); timing report-only, alloc/byte gates enforced under -gate\n",
		matched, len(base.Benchmarks), noise)
}

// spread renders a repeated measurement's IQR as ±% of its median
// ("n=1" for a single run).
func spread(m measurement) string {
	if m.Runs < 2 || m.NsPerOp == 0 {
		return "n=1"
	}
	return fmt.Sprintf("±%.1f%%", m.iqr()/2/m.NsPerOp*100)
}

func inBaseline(base *baseline, name string) bool {
	trimmed := trimProcSuffix(name)
	for _, b := range base.Benchmarks {
		if b.Name == name || b.Name == trimmed {
			return true
		}
	}
	return false
}

// shorten drops the module prefix for readability.
func shorten(name string) string {
	return strings.TrimPrefix(name, "respeed/internal/")
}

func fmtNs(v float64) string {
	if v >= 100 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func delta(old, new float64) string {
	if old == 0 {
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}
