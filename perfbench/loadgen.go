package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one pre-generated operation. Every field is fixed from the
// workload seed before timing starts; the daemons see only the request.
type op struct {
	class  string // traffic class: solve, gain, sigma1, simulate, metrics, scenario, spec
	method string
	target string // path and query
	body   []byte
	// due is the open-loop send time, as an offset from the schedule start.
	due time.Duration
	// sample marks an answer recomputed in full after the run, besides
	// the checks every answer gets.
	sample bool
	// Request parameters the answer is checked against.
	config string
	rho    float64
	n      int
	seed   uint64
	name   string // scenario or spec name
}

// record is the measured outcome of one op. Offsets are from the start
// of the schedule (open loop) or of the timed phase (closed loop).
type record struct {
	picked time.Duration // a sender was free and took the op
	sent   time.Duration // the request was handed to the transport
	end    time.Duration // the whole answer was read
	status int
	err    error
	digest uint64 // FNV-64a of the answer body
	body   []byte // kept for scrapes and sampled scenario answers
	// ok is settled after the run: 200, no transport error, and the
	// answer passed every check. wrong marks a 200 whose answer failed a
	// check made as it arrived.
	ok    bool
	wrong bool
	// Campaigns only: the job, its shard count and its result hash.
	job    string
	shards int
	hash   string
}

// newClient returns an HTTP client holding at most one connection, so
// the generator's connection count equals its sender count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// sender is one generator thread: its connection and the buffer it
// reads answers into, reused so the generator adds little garbage to
// the heap it shares with the daemons.
type sender struct {
	c   *http.Client
	buf bytes.Buffer
}

func newSenders(n int) []*sender {
	s := make([]*sender, n)
	for i := range s {
		s[i] = &sender{c: newClient()}
	}
	return s
}

func closeSenders(s []*sender) {
	for _, x := range s {
		x.c.CloseIdleConnections()
	}
}

// do sends one op and reads the whole answer. rec.end, an offset from
// start, is stamped as soon as the answer is read: the digest and the
// checks that follow are the benchmark's own work, not latency.
func (s *sender) do(ctx context.Context, base string, o *op, reqID string, start time.Time, rec *record) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.target, body)
	if err != nil {
		rec.end, rec.err = time.Since(start), err
		return
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := s.c.Do(req)
	if err != nil {
		rec.end, rec.err = time.Since(start), err
		return
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.end = time.Since(start)
	data := s.buf.Bytes()
	rec.status = resp.StatusCode
	rec.err = err
	rec.digest = digest(data)
	if o.class == "metrics" || o.class == "scenario" || o.class == "spec" {
		if o.sample || o.class == "metrics" {
			rec.body = bytes.Clone(data)
		} else if err == nil && rec.status == http.StatusOK {
			// Every scenario answer is checked against its request;
			// only sampled ones are kept for the full recomputation.
			rec.err = checkScenario(o, data, false)
			rec.wrong = rec.err != nil
		}
	}
}

// runOpen drives an open loop: each op is due at start+op.due whatever
// the state of earlier ops. Each client is one sender with one
// connection; a due op waits for the next free sender. reqIDs, when
// non-nil, tags each request with an X-Request-ID.
// recs must be as long as ops; it is allocated by the caller so that
// the heap baseline taken before the run includes it.
func runOpen(ctx context.Context, senders []*sender, base string, ops []op, recs []record, reqIDs []string, start time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, snd := range senders {
		wg.Add(1)
		go func(snd *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				rec := &recs[i]
				rec.picked = time.Since(start)
				sleepUntil(start.Add(ops[i].due))
				rec.sent = time.Since(start)
				id := ""
				if reqIDs != nil {
					id = reqIDs[i]
				}
				snd.do(ctx, base, &ops[i], id, start, rec)
			}
		}(snd)
	}
	wg.Wait()
}

// timerSlack bounds the part of a wait left to the kernel: Go's timers
// wake an idle processor with millisecond granularity, which an open
// loop would record as server latency, so sleepUntil sleeps in Go down
// to the slack and then in a nanosleep system call, during which the
// runtime hands the processor to the daemons.
const timerSlack = 2 * time.Millisecond

// sleepUntil returns at t.
func sleepUntil(t time.Time) {
	for {
		rem := time.Until(t)
		switch {
		case rem <= 0:
			return
		case rem > timerSlack:
			time.Sleep(rem - timerSlack)
		default:
			ts := syscall.NsecToTimespec(int64(rem))
			syscall.Nanosleep(&ts, nil)
		}
	}
}

// closedRun is what a closed loop executed: the ops and their records,
// client by client, with tagged set the X-Request-ID each carried, and
// the clients that sent every pre-built op and went idle before the
// deadline.
type closedRun struct {
	ops  []op
	recs []record
	ids  []string
	// short lists the clients that ran out of ops: their rate was capped
	// by the generator, not by the daemon.
	short []int
}

// runClosed drives a closed loop: client k sends perClient[k] in order,
// each after the previous answer, until the deadline passes.
func runClosed(ctx context.Context, senders []*sender, base string, perClient [][]op, start time.Time, deadline time.Duration, tagged bool) closedRun {
	recs := make([][]record, len(senders))
	for k := range recs {
		recs[k] = make([]record, 0, len(perClient[k]))
	}
	short := make([]bool, len(senders))
	var wg sync.WaitGroup
	for k, snd := range senders {
		wg.Add(1)
		go func(k int, snd *sender) {
			defer wg.Done()
			for i := range perClient[k] {
				now := time.Since(start)
				if now >= deadline || ctx.Err() != nil {
					return
				}
				rec := record{picked: now, sent: now}
				id := ""
				if tagged {
					id = closedID(k, i)
				}
				snd.do(ctx, base, &perClient[k][i], id, start, &rec)
				recs[k] = append(recs[k], rec)
			}
			short[k] = time.Since(start) < deadline && ctx.Err() == nil
		}(k, snd)
	}
	wg.Wait()
	var out closedRun
	for k := range senders {
		out.ops = append(out.ops, perClient[k][:len(recs[k])]...)
		out.recs = append(out.recs, recs[k]...)
		for i := range recs[k] {
			if tagged {
				out.ids = append(out.ids, closedID(k, i))
			}
		}
		if short[k] {
			out.short = append(out.short, k)
		}
	}
	return out
}

func closedID(client, i int) string { return "c" + strconv.Itoa(client) + "-" + strconv.Itoa(i) }

// openTimes are the open-loop figures of one record.
type openTimes struct {
	latency  time.Duration // end − due: includes every wait a stall imposed
	connWait time.Duration // due → a sender was free
	late     time.Duration // the generator's own lag after it could send
}

func openTimesOf(o *op, r *record) openTimes {
	ready := o.due
	var t openTimes
	if r.picked > o.due {
		t.connWait = r.picked - o.due
		ready = r.picked
	}
	t.late = r.sent - ready
	t.latency = r.end - o.due
	return t
}

// withinLimit reports whether an op counts toward goodput: it must have
// succeeded and answered within its class's limit. A failed or refused
// op misses every limit.
func withinLimit(r *record, latency, limit time.Duration) bool {
	return r.ok && latency <= limit
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile.
const minTail = 10

// tailRank returns the nearest-rank index and percentile of the tail
// figure of n sorted samples: p99 when at least minTail samples lie
// beyond it, otherwise the highest percentile that still has minTail
// beyond it. ok is false when n is too small for any tail.
func tailRank(n int) (idx int, pct float64, ok bool) {
	if n <= minTail {
		return 0, 0, false
	}
	if k := int(math.Ceil(0.99 * float64(n))); n-k >= minTail {
		return k - 1, 99, true
	}
	return n - minTail - 1, 100 * float64(n-minTail) / float64(n), true
}

// summary is a distribution's median and tail with its sample count.
type summary struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

// summarize sorts xs in place and returns its median and tail.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{n: len(xs), p50: math.NaN(), tail: math.NaN()}
	if len(xs) == 0 {
		return s
	}
	s.p50 = xs[int(math.Ceil(0.5*float64(len(xs))))-1]
	if idx, pct, ok := tailRank(len(xs)); ok {
		s.tail, s.tailPct = xs[idx], pct
	}
	return s
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
