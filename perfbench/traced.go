package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"respeed/internal/jobs"
	"respeed/internal/obs"
)

// tracedRingCap sizes the traced run's trace ring to keep every root
// span of a phase.
const tracedRingCap = 1 << 20

// tracing holds what the benchmark's timing wrappers and lane probe
// record; one value serves every traced phase of a run.
type tracing struct {
	mu       sync.Mutex
	handler  map[string]time.Duration // X-Request-ID → handler wall time
	byClass  map[string][]float64     // handler ms by request class
	runner   map[string]time.Duration // "job/shard" → Coordinator.RunShard wall time
	gate     []float64                // jobs Gate wait, ms
	heavyQ   []float64                // summed heavy-lane queue depth per probe
	expressQ []float64                // summed express-lane queue depth per probe
	// jobTraces holds each traced campaign's flight-recorder trace,
	// fetched as soon as the campaign is done: the manager keeps only
	// its 64 newest jobs, so a trace read after the phase may be gone.
	jobTraces map[string]jobs.JobTrace
}

func newTracing() *tracing {
	return &tracing{handler: map[string]time.Duration{}, byClass: map[string][]float64{},
		runner: map[string]time.Duration{}, jobTraces: map[string]jobs.JobTrace{}}
}

// fetchJobTrace reads a finished campaign's /v1/jobs/{id}/trace.
func (t *tracing) fetchJobTrace(c *http.Client, base, job string) error {
	var jt jobs.JobTrace
	if _, err := call(context.Background(), c, http.MethodGet, base+"/v1/jobs/"+job+"/trace", nil, &jt); err != nil {
		return fmt.Errorf("job trace %s: %w", job, err)
	}
	t.mu.Lock()
	t.jobTraces[job] = jt
	t.mu.Unlock()
	return nil
}

// requestClass names the serve class of a request, "" for requests the
// profile does not report (health, metrics, event streams, traces).
func requestClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/solve":
		return "solve"
	case p == "/v1/gain":
		return "gain"
	case p == "/v1/sigma1-table":
		return "sigma1"
	case p == "/v1/simulate" && r.Method == http.MethodPost:
		return "spec"
	case p == "/v1/simulate" && r.URL.Query().Has("scenario"):
		return "scenario"
	case p == "/v1/simulate":
		return "simulate"
	case p == "/v1/shards":
		return "shards"
	case strings.HasPrefix(p, "/v1/jobs") && !strings.HasSuffix(p, "/events") && !strings.HasSuffix(p, "/trace"):
		return "jobs"
	}
	return ""
}

// wrapHandler times Server.Handler().ServeHTTP.
func (t *tracing) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		class := requestClass(r)
		if class == "" {
			return
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.byClass[class] = append(t.byClass[class], ms(d))
		if id := r.Header.Get("X-Request-ID"); id != "" && class != "shards" {
			t.handler[id] = d
		}
	})
}

// wrapRunner times the coordinator's RunShard per (job, shard); the
// settling attempt's time is the one kept.
func (t *tracing) wrapRunner(inner shardRunner) shardRunner {
	return func(ctx context.Context, c jobs.Campaign, sp jobs.ShardPlan, shard, attempt int) (json.RawMessage, error) {
		t0 := time.Now()
		raw, err := inner(ctx, c, sp, shard, attempt)
		d := time.Since(t0)
		t.mu.Lock()
		t.runner[obs.RequestIDFrom(ctx)+"/"+strconv.Itoa(shard)] = d
		t.mu.Unlock()
		return raw, err
	}
}

// timedGate times jobs.Options.Gate waits.
type timedGate struct {
	inner jobs.Gate
	t     *tracing
}

func (g timedGate) Wait(ctx context.Context) (func(), error) {
	t0 := time.Now()
	release, err := g.inner.Wait(ctx)
	d := time.Since(t0)
	g.t.mu.Lock()
	g.t.gate = append(g.t.gate, ms(d))
	g.t.mu.Unlock()
	return release, err
}

func (t *tracing) wrapGate(g jobs.Gate) jobs.Gate { return timedGate{g, t} }

// probe samples the lane queue depths of every daemon in the stack.
func (t *tracing) probe(st stack) func() {
	return func() {
		var heavy, express float64
		for _, d := range st {
			lanes := d.srv.Metrics().Admission.Lanes
			heavy += float64(lanes["heavy"].Queued)
			express += float64(lanes["express"].Queued)
		}
		t.mu.Lock()
		t.heavyQ = append(t.heavyQ, heavy)
		t.expressQ = append(t.expressQ, express)
		t.mu.Unlock()
	}
}

// probe returns the phase's lane probe, nil when untraced.
func (p phaseOpts) probe(st stack) func() {
	if p.tr == nil {
		return nil
	}
	return p.tr.probe(st)
}

// buildStack builds the phase's daemons, with the traced run's ring and
// wrappers when tracing, timing setupRounds builds when asked.
func (r *run) buildStack(sp stackSpec, p phaseOpts, res *phaseResult) (stack, bool) {
	sp.tr, sp.log = p.tr, r.log
	if p.timeSetup {
		st, times, err := buildTimed(sp, r.workDir)
		if err != nil {
			res.problem("setup: %v", err)
			return nil, false
		}
		res.add("setup_s", medianOf(times), "s", len(times), "median build to first 200 /healthz")
		return st, true
	}
	dir, err := makeWorkDir(filepath.Join(r.workDir, "phase"))
	if err == nil {
		var st stack
		if st, err = sp.build(dir); err == nil {
			return st, true
		}
	}
	res.problem("setup: %v", err)
	return nil, false
}

// collected is what a traced phase reads from its daemons before they
// stop.
type collected struct {
	roots   []obs.SpanSnapshot // every daemon's retained root spans
	expo    []*obs.Exposition  // every daemon's registry
	scrapes []float64          // /metrics client time, ms
	sizes   []float64          // exposition size, KiB
}

func (c *collected) read(st stack, scrapes int) error {
	for _, d := range st {
		c.roots = append(c.roots, d.tracer.Roots()...)
		e, err := registryExposition(d)
		if err != nil {
			return err
		}
		c.expo = append(c.expo, e)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	for i := 0; i < scrapes; i++ {
		t0 := time.Now()
		_, data, err := scrape(client, st.front().url)
		if err != nil {
			return err
		}
		c.scrapes = append(c.scrapes, ms(time.Since(t0)))
		c.sizes = append(c.sizes, float64(len(data))/1024)
	}
	return nil
}

// total sums a family over every daemon's registry.
func (c *collected) total(name string, want map[string]string) float64 {
	var t float64
	for _, e := range c.expo {
		t += sum(e, name, want)
	}
	return t
}

// childMS returns the summed duration of a span's direct children with
// the given name.
func childMS(s obs.SpanSnapshot, name string) (float64, bool) {
	var t float64
	found := false
	for _, c := range s.Children {
		if c.Name == name {
			t += c.DurationMS
			found = true
		}
	}
	return t, found
}
