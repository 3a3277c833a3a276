package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"respeed/internal/faults"
	"respeed/internal/rngx"
)

// Outcome is what a FaultProcess decided for one attempt window.
type Outcome struct {
	// FailStop reports a fail-stop strike; FailStopAt is its offset
	// into the window (math.Inf(1) when none struck).
	FailStop   bool
	FailStopAt float64
	// Silent reports a silent error within the window's compute span.
	// A fail-stop anywhere in the window preempts the attempt, so a
	// silent strike is only reported when no fail-stop occurred.
	Silent bool
	// FailNode and SilentNode attribute the errors to a node (-1 for
	// aggregate processes).
	FailNode, SilentNode int
}

// FaultProcess samples when errors strike an execution. Implementations
// must be deterministic in their seed material; each preserves the RNG
// draw order of the legacy simulator it replaces.
type FaultProcess interface {
	// SampleWindow samples one standard attempt window: a fail-stop
	// anywhere in span seconds starting at now, and a silent error
	// within the leading silentSpan (the compute phase).
	SampleWindow(now, span, silentSpan float64) Outcome
	// SampleFailStop samples only the fail-stop process over span —
	// the partial-verification path draws it separately from the
	// per-segment silent checks.
	SampleFailStop(now, span float64) (at float64, node int, hit bool)
	// SampleSilent samples only the silent process over dur.
	SampleSilent(dur float64) (node int, hit bool)
	// NoteFailStop and NoteSilent record that a sampled error was
	// acted upon (per-node processes attribute it to the node).
	NoteFailStop(node int)
	NoteSilent(node int)
	// Corrupt flips state bits to materialize a silent error.
	Corrupt(state []byte)
}

// AggregateFaults is the paper's platform model: one aggregated silent
// process and one aggregated fail-stop process, sampled lazily from a
// single stream (fail-stop first, then silent only if no fail-stop —
// the historical injector draw order).
type AggregateFaults struct {
	inj *faults.Injector
}

// NewAggregateFaults builds the aggregate process on rng.
func NewAggregateFaults(lambdaS, lambdaF float64, rng *rngx.Stream) *AggregateFaults {
	return &AggregateFaults{inj: faults.New(lambdaS, lambdaF, rng)}
}

// Injector exposes the underlying fault injector (for stats).
func (a *AggregateFaults) Injector() *faults.Injector { return a.inj }

// SampleWindow implements FaultProcess.
func (a *AggregateFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	if at, hit := a.inj.FailStopWithin(span); hit {
		return Outcome{FailStop: true, FailStopAt: at, FailNode: -1, SilentNode: -1}
	}
	return Outcome{FailStopAt: math.Inf(1), FailNode: -1, SilentNode: -1,
		Silent: a.inj.SilentWithin(silentSpan)}
}

// SampleFailStop implements FaultProcess.
func (a *AggregateFaults) SampleFailStop(now, span float64) (float64, int, bool) {
	at, hit := a.inj.FailStopWithin(span)
	return at, -1, hit
}

// SampleSilent implements FaultProcess.
func (a *AggregateFaults) SampleSilent(dur float64) (int, bool) {
	return -1, a.inj.SilentWithin(dur)
}

// NoteFailStop implements FaultProcess (no-op: nothing to attribute).
func (a *AggregateFaults) NoteFailStop(int) {}

// NoteSilent implements FaultProcess (no-op).
func (a *AggregateFaults) NoteSilent(int) {}

// Corrupt implements FaultProcess.
func (a *AggregateFaults) Corrupt(state []byte) { a.inj.CorruptState(state) }

// Node is one machine of a multi-node platform.
type Node struct {
	// ID names the node.
	ID int
	// SilentRate and FailStopRate are this node's error rates (per
	// second of wall-clock while the node is computing).
	SilentRate, FailStopRate float64
	// SpeedShare is the node's fraction of the aggregate speed; shares
	// must sum to 1.
	SpeedShare float64
}

// UniformNodes builds n identical nodes that together provide the
// aggregate speed, with the platform rates split evenly — the
// decomposition the paper's aggregate model implies.
func UniformNodes(n int, totalSilentRate, totalFailStopRate float64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:           i,
			SilentRate:   totalSilentRate / float64(n),
			FailStopRate: totalFailStopRate / float64(n),
			SpeedShare:   1 / float64(n),
		}
	}
	return nodes
}

// ValidateNodes checks a node list: positive speed shares summing to 1
// and non-negative rates.
func ValidateNodes(nodes []Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("engine: need at least one node")
	}
	var share float64
	for _, n := range nodes {
		if n.SilentRate < 0 || n.FailStopRate < 0 {
			return fmt.Errorf("engine: node %d has negative rates", n.ID)
		}
		if n.SpeedShare <= 0 {
			return fmt.Errorf("engine: node %d has non-positive speed share", n.ID)
		}
		share += n.SpeedShare
	}
	if math.Abs(share-1) > 1e-9 {
		return fmt.Errorf("engine: speed shares sum to %g, want 1", share)
	}
	return nil
}

// PerNodeFaults models N independent per-node Poisson error processes.
// Each window draws every node's next fail-stop and silent arrival and
// keeps the earliest of each kind; the earliest fail-stop preempts the
// attempt. Each node consumes its own deterministic substream, so
// results are independent of node-iteration internals.
type PerNodeFaults struct {
	nodes []Node
	rngs  []rngx.Stream
	// suffixes caches the "/node-<i>" stream-name suffixes so pooled
	// resets derive the node streams without building strings.
	suffixes []string
	// failAt and silentAt hold one window's per-node draws (+Inf where
	// a node draws nothing).
	failAt, silentAt []float64
	// clock is the fault process's own time: it follows the caller's
	// clock forward and ends every window at start+span, even when a
	// fail-stop ends the attempt earlier.
	clock      float64
	corruptRNG rngx.Stream
	corrupt    faults.Injector
	errors     []int
}

// NewPerNodeFaults builds the per-node process. Node i draws from the
// substream (seed, "<prefix>/node-<i>"); prefix "cluster" reproduces
// the historical cluster simulator streams.
func NewPerNodeFaults(nodes []Node, seed uint64, prefix string) (*PerNodeFaults, error) {
	if err := ValidateNodes(nodes); err != nil {
		return nil, err
	}
	f := &PerNodeFaults{}
	f.init(nodes)
	for i := range f.rngs {
		f.rngs[i].Reseed(seed, prefix+"/node-"+strconv.Itoa(i))
	}
	// State corruption draws from a dedicated stream so enabling a
	// real workload does not perturb the per-node arrival processes.
	f.corruptRNG.Reseed(seed, prefix+"/corrupt")
	return f, nil
}

// resetIndexed re-derives the process in place as
// NewPerNodeFaults(nodes, seed, prefix+decimal(run)) would, without
// allocating once its buffers have grown to the node count. nodes must
// already be validated.
func (f *PerNodeFaults) resetIndexed(nodes []Node, seed uint64, prefix string, run int) {
	f.init(nodes)
	for i := len(f.suffixes); i < len(nodes); i++ {
		f.suffixes = append(f.suffixes, "/node-"+strconv.Itoa(i))
	}
	for i := range f.rngs {
		f.rngs[i].ReseedIndexedSuffix(seed, prefix, run, f.suffixes[i])
	}
	f.corruptRNG.ReseedIndexedSuffix(seed, prefix, run, "/corrupt")
}

// init sizes the per-node buffers (reusing their capacity) and zeroes
// the clock and error counts; the caller seeds the streams.
func (f *PerNodeFaults) init(nodes []Node) {
	n := len(nodes)
	f.nodes = nodes
	f.rngs = slices.Grow(f.rngs[:0], n)[:n]
	f.failAt = slices.Grow(f.failAt[:0], n)[:n]
	f.silentAt = slices.Grow(f.silentAt[:0], n)[:n]
	f.errors = slices.Grow(f.errors[:0], n)[:n]
	clear(f.errors)
	f.clock = 0
	f.corrupt.Reset(0, 0, &f.corruptRNG)
}

// PerNodeErrors returns a copy of the per-node error counts.
func (f *PerNodeFaults) PerNodeErrors() []int {
	return append([]int(nil), f.errors...)
}

// SampleWindow implements FaultProcess: it draws every node's next
// fail-stop (within span) and silent arrival (within silentSpan, which
// must not exceed span) and resolves the window.
func (f *PerNodeFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	for i, node := range f.nodes {
		f.failAt[i], f.silentAt[i] = math.Inf(1), math.Inf(1)
		if node.FailStopRate > 0 {
			f.failAt[i] = f.rngs[i].Exp(node.FailStopRate)
		}
		if node.SilentRate > 0 {
			f.silentAt[i] = f.rngs[i].Exp(node.SilentRate)
		}
	}
	var out Outcome
	out, f.clock = resolveWindow(f.clock, now, span, silentSpan, f.failAt, f.silentAt)
	return out
}

// SampleFailStop implements FaultProcess: a window over the fail-stop
// processes only.
func (f *PerNodeFaults) SampleFailStop(now, span float64) (float64, int, bool) {
	for i, node := range f.nodes {
		f.failAt[i] = math.Inf(1)
		if node.FailStopRate > 0 {
			f.failAt[i] = f.rngs[i].Exp(node.FailStopRate)
		}
	}
	var out Outcome
	out, f.clock = resolveWindow(f.clock, now, span, 0, f.failAt, nil)
	return out.FailStopAt, out.FailNode, out.FailStop
}

// resolveWindow decides one attempt window from the per-node arrival
// delays failAt[i] and silentAt[i] (+Inf for none; silentAt may be nil)
// and returns the outcome with the fault clock after the window.
//
// The rule is that of a time-ordered event queue drained over the
// window, which the seed-pinned cluster goldens were recorded with. The
// window starts at start = max(clock, now); an arrival counts when its
// delay is below its span; arrivals fire in order of their rounded
// absolute time start+d, equal times in scheduling order (node index; a
// node's fail-stop before its silent error); the first fail-stop and
// the first silent error to fire win; and the fail-stop offset is
// measured back from the absolute time, (start+d)−start, which need not
// equal d. The clock ends at start+span whatever the outcome.
func resolveWindow(clock, now, span, silentSpan float64, failAt, silentAt []float64) (Outcome, float64) {
	start := clock
	if start < now {
		start = now
	}
	out := Outcome{FailStopAt: math.Inf(1), FailNode: -1, SilentNode: -1}
	failT, silentT := math.Inf(1), math.Inf(1)
	for i, d := range failAt {
		// Scanning in node order with a strict comparison keeps the
		// lowest index among equal absolute times.
		if d < span && start+d < failT {
			failT, out.FailNode = start+d, i
		}
	}
	for i, d := range silentAt {
		if d < silentSpan && start+d < silentT {
			silentT, out.SilentNode = start+d, i
		}
	}
	if out.FailNode >= 0 {
		out.FailStopAt = failT - start
	}
	out.FailStop = out.FailStopAt < span
	if out.FailStop {
		out.SilentNode = -1
	} else {
		out.Silent = out.SilentNode >= 0
	}
	return out, start + span
}

// SampleSilent implements FaultProcess: the earliest per-node silent
// arrival within dur, if any.
func (f *PerNodeFaults) SampleSilent(dur float64) (int, bool) {
	best, node := math.Inf(1), -1
	for i, n := range f.nodes {
		if n.SilentRate > 0 {
			if d := f.rngs[i].Exp(n.SilentRate); d < dur && d < best {
				best, node = d, i
			}
		}
	}
	return node, node >= 0
}

// NoteFailStop implements FaultProcess.
func (f *PerNodeFaults) NoteFailStop(node int) {
	if node >= 0 {
		f.errors[node]++
	}
}

// NoteSilent implements FaultProcess.
func (f *PerNodeFaults) NoteSilent(node int) {
	if node >= 0 {
		f.errors[node]++
	}
}

// Corrupt implements FaultProcess.
func (f *PerNodeFaults) Corrupt(state []byte) { f.corrupt.CorruptState(state) }
