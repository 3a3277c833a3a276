package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"respeed/internal/admit"
	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/obs"
	"respeed/internal/serve"
)

// shardRunner is the jobs.Options.ShardRunner signature.
type shardRunner = func(ctx context.Context, c jobs.Campaign, sp jobs.ShardPlan, shard, attempt int) (json.RawMessage, error)

// daemonOpts selects one in-process respeedd. The zero value is a plain
// daemon: no journal directory, no peers, the default trace ring.
type daemonOpts struct {
	jobsDir string   // -jobs-dir
	peers   []string // -peers: makes the daemon a fleet coordinator
	// log is the daemon's structured logger, as -log-level info
	// -log-format text builds it; nil discards.
	log *slog.Logger
	// tr, in traced runs only, sizes the trace ring to keep the whole
	// phase and wraps the handler and the coordinator's shard runner.
	tr *tracing
}

// daemon is one respeedd, wired the way cmd/respeedd wires it: one
// registry, one trace ring and one heavy lane shared by the server, the
// jobs manager and the fleet roles.
type daemon struct {
	url    string
	srv    *serve.Server
	reg    *obs.Registry
	tracer *obs.Tracer
	heavy  *admit.Lane
	jobs   *jobs.Manager
	coord  *fleet.Coordinator
	cancel context.CancelFunc
	done   chan error
	http   *http.Server // traced runs serve through their own http.Server
}

func startDaemon(o daemonOpts) (*daemon, error) {
	policy, err := admit.New("always")
	if err != nil {
		return nil, err
	}
	slots := runtime.GOMAXPROCS(0)
	traceCap := 0 // the default ring
	if o.tr != nil {
		traceCap = tracedRingCap
	}
	d := &daemon{
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(traceCap),
		heavy:  admit.NewLane("heavy", slots, 4*slots),
		done:   make(chan error, 1),
	}
	worker := fleet.NewWorker(fleet.WorkerOptions{Registry: d.reg, Logger: o.log})
	if len(o.peers) > 0 {
		peers, err := fleet.ParsePeers(strings.Join(o.peers, ","))
		if err != nil {
			return nil, err
		}
		rr, err := fleet.NewPolicy("round-robin")
		if err != nil {
			return nil, err
		}
		d.coord, err = fleet.NewCoordinator(fleet.Options{
			Peers:          peers,
			Policy:         rr,
			HeartbeatEvery: 2 * time.Second,
			ShardTimeout:   2 * time.Minute,
			LocalFallback:  false,
			LocalGate:      d.heavy,
			ScrapeInterval: 10 * time.Second,
			TraceRemote:    true,
			Registry:       d.reg,
			Logger:         o.log,
		})
		if err != nil {
			return nil, err
		}
	}
	if o.jobsDir != "" {
		mopts := jobs.Options{Dir: o.jobsDir, Logger: o.log, Registry: d.reg, Tracer: d.tracer, Gate: d.heavy}
		if d.coord != nil {
			// As in cmd/respeedd: shards run on peers, so they hold no
			// local heavy-lane slot.
			mopts.Gate = nil
			mopts.ShardRunner = d.coord.RunShard
			if o.tr != nil {
				mopts.ShardRunner = o.tr.wrapRunner(d.coord.RunShard)
			}
		}
		if d.jobs, err = jobs.Open(mopts); err != nil {
			d.closeRoles()
			return nil, err
		}
	}
	d.srv = serve.New(serve.Options{
		CacheSize:        4096,
		RequestTimeout:   10 * time.Second,
		DrainTimeout:     15 * time.Second,
		MaxSimulations:   1_000_000,
		Jobs:             d.jobs,
		Logger:           o.log,
		Registry:         d.reg,
		Tracer:           d.tracer,
		Admission:        policy,
		HeavyLane:        d.heavy,
		OverloadMode:     serve.OverloadReject,
		FleetWorker:      worker,
		FleetCoordinator: d.coord,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeRoles()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	if o.tr == nil {
		go func() { d.done <- d.srv.Run(ctx, ln) }()
	} else {
		d.http = &http.Server{Handler: o.tr.wrapHandler(d.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { d.done <- d.http.Serve(ln) }()
	}
	return d, nil
}

// stop drains the listener, then closes the jobs manager and the
// coordinator, and waits for all of them.
func (d *daemon) stop() {
	if d.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		d.http.Shutdown(ctx)
		cancel()
	}
	d.cancel()
	<-d.done
	d.closeRoles()
}

func (d *daemon) closeRoles() {
	if d.jobs != nil {
		d.jobs.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
}

// healthy waits for the daemon's first 200 /healthz.
func healthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stack is the set of daemons one workload uses; the first is the one
// the load generator talks to.
type stack []*daemon

func (s stack) front() *daemon { return s[0] }

// stop stops the daemons front first. The coordinator dials its peers
// through http.DefaultTransport, as in cmd/respeedd; closing that
// transport's idle connections after each stop lets the workers' drains
// finish at once instead of waiting out dialed connections that never
// carried a request.
func (s stack) stop() {
	for _, d := range s {
		d.stop()
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
}

// stackSpec builds a workload's daemons.
type stackSpec struct {
	fleet bool     // a coordinator with a journal and two worker daemons
	tr    *tracing // traced runs only
	log   *slog.Logger
}

// build constructs the stack and waits for every daemon's first 200
// /healthz. dir is a fresh directory for the coordinator's journal.
func (sp stackSpec) build(dir string) (stack, error) {
	base := daemonOpts{tr: sp.tr, log: sp.log}
	var s stack
	if sp.fleet {
		var peers []string
		for i := 0; i < 2; i++ {
			w, err := startDaemon(base)
			if err != nil {
				s.stop()
				return nil, err
			}
			s = append(s, w)
			peers = append(peers, w.url)
		}
		co := base
		co.jobsDir, co.peers = dir, peers
		c, err := startDaemon(co)
		if err != nil {
			s.stop()
			return nil, err
		}
		s = append(stack{c}, s...)
	} else {
		d, err := startDaemon(base)
		if err != nil {
			return nil, err
		}
		s = stack{d}
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, d := range s {
		if err := healthy(c, d.url); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// setupRounds is how many times a run builds its stack; setup_s is the
// median, and the last stack built serves the timed phase.
const setupRounds = 51

// buildTimed builds the stack setupRounds times, tearing down all but
// the last, and returns it with every build's wall time in seconds.
func buildTimed(sp stackSpec, workDir string) (stack, []float64, error) {
	var times []float64
	var s stack
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.stop()
		}
		dir := filepath.Join(workDir, fmt.Sprintf("jobs-%d", i))
		t0 := time.Now()
		var err error
		if s, err = sp.build(dir); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

// medianOf returns the median of xs (mean of the middle two for an even
// count) without reordering xs.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scrape fetches and strict-parses one /metrics exposition.
func scrape(c *http.Client, url string) (*obs.Exposition, []byte, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	e, err := obs.ParseExposition(data)
	return e, data, err
}

// sum adds every sample of a family whose labels include want.
func sum(e *obs.Exposition, name string, want map[string]string) float64 {
	var t float64
	for _, s := range e.Find(name) {
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			t += s.Value
		}
	}
	return t
}

// makeWorkDir creates a fresh per-run scratch directory under root.
func makeWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
