package serve

// White-box lifecycle tests: these need the preCompute hook to hold a
// request in flight deterministically, so they live inside the package.

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const solveURL = "/v1/solve?config=Hera%2FXScale&rho=3"

// TestRunDrainsInFlightRequests is the SIGTERM story: cancel the run
// context while a request is mid-computation, and the request must
// still complete with its real answer before Run returns.
func TestRunDrainsInFlightRequests(t *testing.T) {
	s := New(Options{RequestTimeout: 10 * time.Second, DrainTimeout: 10 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.preCompute = func(string) {
		once.Do(func() { close(started) })
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + solveURL)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-started // the request is now in flight
	cancel()  // deliver the "SIGTERM"
	time.Sleep(20 * time.Millisecond)
	close(release) // let the computation finish during the drain

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request was dropped: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request answered %d: %s", res.status, res.body)
	}
	if !strings.Contains(res.body, `"solution"`) {
		t.Errorf("drained response is not a real answer: %s", res.body)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil after clean drain", err)
	}
}

// TestIdenticalConcurrentSolvesComputeOnce pins the singleflight
// behavior end to end: a herd of identical queries arriving while the
// first is still computing must trigger exactly one solver run.
func TestIdenticalConcurrentSolvesComputeOnce(t *testing.T) {
	s := New(Options{RequestTimeout: 10 * time.Second})
	var computes atomic.Int32
	gate := make(chan struct{})
	s.preCompute = func(string) {
		computes.Add(1)
		<-gate
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const herd = 20
	statuses := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + solveURL)
			if err != nil {
				t.Error(err)
				return
			}
			// Read to EOF: the body ends only once the handler has
			// returned, and so once it has metered the request.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the herd pile up on the flight
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d answered %d", i, st)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("solver ran %d times for one canonical query, want 1", n)
	}
	ep := s.Metrics().Endpoints["/v1/solve"]
	if ep.Requests != herd {
		t.Errorf("metrics saw %d requests, want %d", ep.Requests, herd)
	}
	if ep.CacheMisses != 1 || ep.CacheHits != herd-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", ep.CacheHits, ep.CacheMisses, herd-1)
	}
}

// TestSlowComputationTimesOutThenWarmsCache: a waiter that exceeds
// RequestTimeout answers 504, but the computation keeps going and the
// next request is served from cache.
func TestSlowComputationTimesOutThenWarmsCache(t *testing.T) {
	s := New(Options{RequestTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	var blockOnce sync.Once
	s.preCompute = func(string) {
		blockOnce.Do(func() { <-release })
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + solveURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blocked request answered %d: %s", resp.StatusCode, body)
	}
	close(release)

	// The abandoned computation still completes and fills the cache.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + solveURL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never warmed; last status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ep := s.Metrics().Endpoints["/v1/solve"]
	if ep.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", ep.Timeouts)
	}
}

// TestSemaphoreBoundsConcurrentComputations: with MaxInFlight=1, two
// distinct queries must compute strictly one after the other.
func TestSemaphoreBoundsConcurrentComputations(t *testing.T) {
	s := New(Options{MaxInFlight: 1, RequestTimeout: 10 * time.Second})
	var inFlight, peak atomic.Int32
	s.preCompute = func(string) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	urls := []string{
		"/v1/solve?config=Hera%2FXScale&rho=3",
		"/v1/solve?config=Atlas%2FCrusoe&rho=3",
		"/v1/gain?config=Hera%2FXScale&rho=3",
	}
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + u)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s answered %d", u, resp.StatusCode)
			}
		}(u)
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Errorf("peak concurrent computations %d, want 1 (MaxInFlight=1)", p)
	}
}
