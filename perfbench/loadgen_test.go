package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"respeed"
	"respeed/internal/jobs"
)

// A stalled request delays the ops due behind it; timing from the due
// time charges that wait to them, and the split reports it as
// connection wait rather than generator lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	senders := newSenders(1)
	defer closeSenders(senders)
	ops := []op{
		{class: "solve", method: http.MethodGet, target: "/a", due: 2 * time.Millisecond},
		{class: "solve", method: http.MethodGet, target: "/b", due: 7 * time.Millisecond},
	}
	recs := make([]record, len(ops))
	runOpen(context.Background(), senders, srv.URL, ops, recs, nil, time.Now())
	first, second := openTimesOf(&ops[0], &recs[0]), openTimesOf(&ops[1], &recs[1])
	if first.latency < service || first.connWait != 0 {
		t.Fatalf("first op: latency %v, conn wait %v", first.latency, first.connWait)
	}
	// The second op was due at 7ms but its only connection was busy
	// until ~32ms: its latency covers both waits.
	if second.latency < 2*service-ops[1].due {
		t.Fatalf("second op latency %v, want at least %v from its due time", second.latency, 2*service-ops[1].due)
	}
	if second.connWait < service-ops[1].due-time.Millisecond {
		t.Fatalf("second op conn wait %v, want about %v", second.connWait, service-ops[1].due)
	}
	if second.late > second.connWait {
		t.Fatalf("second op generator lag %v exceeds its connection wait %v", second.late, second.connWait)
	}
}

func TestOpenTimesSplit(t *testing.T) {
	ms := time.Millisecond
	o := op{due: 10 * ms}
	// Free before due: no connection wait; lag is send − due.
	r := record{picked: 4 * ms, sent: 10*ms + 200*time.Microsecond, end: 13 * ms}
	got := openTimesOf(&o, &r)
	if got.connWait != 0 || got.late != 200*time.Microsecond || got.latency != 3*ms {
		t.Fatalf("free sender: %+v", got)
	}
	// Busy until 16ms: 6ms connection wait, lag counted from 16ms.
	r = record{picked: 16 * ms, sent: 16*ms + 100*time.Microsecond, end: 20 * ms}
	got = openTimesOf(&o, &r)
	if got.connWait != 6*ms || got.late != 100*time.Microsecond || got.latency != 10*ms {
		t.Fatalf("busy sender: %+v", got)
	}
}

// The plan-mix workload reports the generator's own lag and its
// connection wait, each as a tail with its sample count.
func TestPlanMixReportsGeneratorFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	cfg, err := loadConfig("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlanMix.RatePerS, cfg.PlanMix.WarmupS, cfg.PlanMix.ScrapeEveryS = 400, 0.1, 0.2
	r := &run{cfg: cfg, seed: 7, workDir: t.TempDir()}
	res := r.planMix(phaseOpts{seconds: 0.5})
	if len(res.problems) > 0 {
		t.Fatalf("problems: %v", res.problems)
	}
	found := map[string]metricRow{}
	for _, m := range res.rows {
		found[m.name] = m
	}
	for _, name := range []string{"loadgen.late_p99_ms", "loadgen.conn_wait_p99_ms", "latency_p50_ms", "latency_p99_ms"} {
		m, ok := found[name]
		if !ok || m.n == 0 || m.value < 0 {
			t.Errorf("%s: %+v (present %v)", name, m, ok)
		}
	}
}

func TestTailRank(t *testing.T) {
	cases := []struct {
		n       int
		idx     int
		pct     float64
		wantOK  bool
		beyond  int
		comment string
	}{
		{n: 1000, idx: 989, pct: 99, wantOK: true, beyond: 10, comment: "p99 has exactly 10 beyond"},
		{n: 5000, idx: 4949, pct: 99, wantOK: true, beyond: 50, comment: "p99 with room to spare"},
		{n: 500, idx: 489, pct: 98, wantOK: true, beyond: 10, comment: "too few for p99: p98"},
		{n: 11, idx: 0, pct: 100.0 / 11, wantOK: true, beyond: 10, comment: "smallest sample with a tail"},
		{n: 10, wantOK: false, comment: "no percentile has 10 beyond"},
	}
	for _, c := range cases {
		idx, pct, ok := tailRank(c.n)
		if ok != c.wantOK {
			t.Errorf("n=%d: ok=%v (%s)", c.n, ok, c.comment)
			continue
		}
		if !ok {
			continue
		}
		if idx != c.idx || pct != c.pct || c.n-idx-1 != c.beyond {
			t.Errorf("n=%d: idx %d pct %g beyond %d, want idx %d pct %g beyond %d (%s)",
				c.n, idx, pct, c.n-idx-1, c.idx, c.pct, c.beyond, c.comment)
		}
	}
}

// The printed tail carries its percentile and sample count.
func TestSummaryPrintsPercentileAndCount(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i)
	}
	s := summarize(xs)
	if s.n != 500 || s.p50 != 250 || s.tailPct != 98 || s.tail != 490 {
		t.Fatalf("summary %+v", s)
	}
	var o outcome
	o.add("latency_p99_ms", s.tail, "ms", s.n, "p98")
	var buf bytes.Buffer
	report(&buf, "w", o)
	if want := "w latency_p99_ms = 490 ms (n=500) [p98]\n"; !bytes.HasPrefix(buf.Bytes(), []byte(want)) {
		t.Fatalf("report %q, want prefix %q", buf.String(), want)
	}
}

// A failed or refused op misses every latency limit, however fast it
// was answered.
func TestFailuresMissEveryLimit(t *testing.T) {
	lim := 25 * time.Millisecond
	cases := []struct {
		rec  record
		lat  time.Duration
		want bool
	}{
		{record{status: http.StatusOK, ok: true}, time.Millisecond, true},
		{record{status: http.StatusOK, ok: true}, 30 * time.Millisecond, false},
		{record{status: http.StatusTooManyRequests}, time.Microsecond, false},
		{record{status: http.StatusServiceUnavailable}, time.Microsecond, false},
		{record{err: errors.New("connection refused")}, 0, false},
		{record{status: http.StatusOK, ok: false}, time.Microsecond, false}, // wrong answer
	}
	for i, c := range cases {
		if got := withinLimit(&c.rec, c.lat, lim); got != c.want {
			t.Errorf("case %d: withinLimit = %v, want %v", i, got, c.want)
		}
	}
	if got := limit(map[string]float64{"solve": 25}, "unlisted"); got != 0 {
		t.Errorf("unlisted class limit %v, want 0", got)
	}
}

// The result line has exactly the four keys, and info rows stay out of
// its metrics.
func TestResultLine(t *testing.T) {
	var o outcome
	o.attempted, o.failed = 10, 1
	o.add("latency_p50_ms", 1.25, "ms", 10, "")
	o.info("share.solve", 0.5, "ratio", 5, "")
	var buf bytes.Buffer
	if err := printResult(&buf, o); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("keys of %s", buf.String())
	}
	var metrics map[string]resultMetric
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 1 || metrics["latency_p50_ms"] != (resultMetric{1.25, "ms"}) {
		t.Fatalf("metrics %v", metrics)
	}
}

// A closed-loop client that sends every pre-built op before the
// deadline is reported, so a generator cap cannot pass for a measured
// rate; a client still busy at the deadline is not.
func TestClosedLoopReportsShortClients(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(time.Millisecond)
		}
	}))
	defer srv.Close()
	senders := newSenders(2)
	defer closeSenders(senders)
	few := []op{{class: "solve", method: http.MethodGet, target: "/fast"}}
	// 200 ops of at least 1ms each outlast the 50ms deadline.
	many := make([]op, 200)
	for i := range many {
		many[i] = op{class: "solve", method: http.MethodGet, target: "/slow"}
	}
	cr := runClosed(context.Background(), senders, srv.URL, [][]op{few, many}, time.Now(), 50*time.Millisecond, false)
	if len(cr.short) != 1 || cr.short[0] != 0 {
		t.Fatalf("short clients %v, want [0]", cr.short)
	}
	if len(cr.ops) != len(cr.recs) || len(cr.recs) < 2 {
		t.Fatalf("%d ops, %d records", len(cr.ops), len(cr.recs))
	}
}

// The solver keys of a phase are the distinct (config, ρ) of its
// requests and every cell of its campaigns.
func TestSolverKeys(t *testing.T) {
	sweep, err := json.Marshal(jobs.Campaign{Kind: jobs.KindSweep, Rhos: []float64{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ops := []op{
		{class: "solve", config: "Hera/XScale", rho: 3},
		{class: "gain", config: "Hera/XScale", rho: 3},
		{class: "metrics"},
		{class: string(jobs.KindSweep), body: sweep},
	}
	keys := solverKeys(ops)
	// Hera/XScale at ρ=3 is also one of the sweep's cells.
	if want := 2 * len(respeed.ConfigNames()); len(keys) != want {
		t.Fatalf("%d keys, want %d: %v", len(keys), want, keys)
	}
}
