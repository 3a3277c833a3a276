package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"respeed/internal/detect"

	"respeed/internal/faults"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// The pooled scenario path's contract is bit-exactness with
// Scenario.runSized on a fresh App: same stream names, same draws, same
// component states after every in-place reset. These tests replay both
// paths and require reports to match field for field (float bits
// included) across every scenario composition the catalog exercises —
// including repeated scratch reuse, which is where a missed reset would
// surface as drift between consecutive runs.

// scenarioPoolCases covers every policy combination runOnce dispatches
// on: the aggregate fast path, both fault channels, the faults-factory
// and per-node paths, two-level tiers, partial verification, skipped
// verification, every workload kernel, and a trajectory too large for
// the witness table.
func scenarioPoolCases() []struct {
	name string
	sc   Scenario
} {
	base := testScenario()

	bothChannels := base
	bothChannels.Costs.LambdaF = 5e-4

	cluster := base
	cluster.Costs.LambdaS = 0
	cluster.Nodes = UniformNodes(4, 2e-3, 5e-4)
	cluster.TwoLevel = &TwoLevelSpec{MemC: 1.5, DiskC: 6, DiskR: 12, Every: 3}

	partialFS := base
	partialFS.Costs.LambdaF = 5e-4
	partialFS.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}

	renewal := base
	renewal.Costs.LambdaS = 0
	renewal.Faults = func(seed uint64, prefix string) (FaultProcess, error) {
		return NewRenewalFaults(RenewalConfig{
			Silent: faults.NewRenewal(faults.Weibull{Shape: 0.7, Scale: 500},
				rngx.NewStream(seed, prefix+"/renewal/silent")),
			FailStop: []faults.ArrivalSource{faults.NewRenewal(faults.Exponential{Rate: 5e-4},
				rngx.NewStream(seed, prefix+"/renewal/failstop-0"))},
			RNG: rngx.NewStream(seed, prefix+"/renewal/aux"),
		})
	}

	skip := base
	skip.SkipVerification = true

	perNode := base
	perNode.Costs.LambdaS = 0
	perNode.Nodes = UniformNodes(3, 2e-3, 4e-4)

	perNodePartial := perNode
	perNodePartial.Partial = &Partial{Segments: 3, Coverage: 0.5, Cost: 0.4}

	heat := base
	heat.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, 0.2)) }

	heat2D := base
	heat2D.Costs.LambdaF = 5e-4
	heat2D.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat2D(12, 0.2)) }

	matVec := base
	matVec.Partial = &Partial{Segments: 2, Coverage: 0.6, Cost: 0.4}
	matVec.NewWorkload = func() *Runner { return FromWorkload(workload.NewMatVec(16)) }

	overCap := base
	overCap.Costs.LambdaF = 5e-4
	overCap.NewWorkload = func() *Runner { return newCountingRunner(overCapState, nil) }

	return []struct {
		name string
		sc   Scenario
	}{
		{"aggregate", base},
		{"both-channels", bothChannels},
		{"cluster-twolevel", cluster},
		{"partial-failstop", partialFS},
		{"renewal-factory", renewal},
		{"skip-verification", skip},
		{"pernode-single", perNode},
		{"pernode-partial", perNodePartial},
		{"heat-workload", heat},
		{"heat2d-workload", heat2D},
		{"matvec-partial", matVec},
		{"over-cap", overCap},
	}
}

// memoExpected reports whether a pool case should run on the witness
// table rather than the live replica.
func memoExpected(name string) bool {
	return name != "skip-verification" && name != "over-cap"
}

// overCapState is a snapshot size (a whole number of words) whose
// ten-pattern trajectory exceeds witnessMemoCap.
const overCapState = (witnessMemoCap/80 + 1) * 8

// countingRunner is a fake workload that counts its Advance calls. Its
// state is size bytes (a multiple of 8, at least 8): the accumulated
// work in the first word, then bytes that only a restore changes, so a
// flipped bit anywhere persists like a real kernel's.
type countingRunner struct {
	work     float64
	snap     []byte
	advances int
}

// newCountingRunner builds a counting runner; every runner built from
// it (clones included) is recorded in seen when seen is non-nil.
func newCountingRunner(size int, seen map[*Runner]*countingRunner) *Runner {
	return (&countingRunner{snap: make([]byte, size)}).runner(seen)
}

func (c *countingRunner) runner(seen map[*Runner]*countingRunner) *Runner {
	r := NewRunner("counting",
		func(w float64) {
			c.advances++
			c.work += w
			binary.LittleEndian.PutUint64(c.snap, math.Float64bits(c.work))
		},
		func() float64 { return c.work },
		func() []byte { return c.snap },
		func(b []byte) error {
			if len(b) != len(c.snap) {
				return errors.New("counting: bad snapshot")
			}
			copy(c.snap, b)
			c.work = math.Float64frombits(binary.LittleEndian.Uint64(b))
			return nil
		},
		func() *Runner {
			return (&countingRunner{work: c.work, snap: append([]byte(nil), c.snap...)}).runner(seen)
		})
	if seen != nil {
		seen[r] = c
	}
	return r
}

// runSizedReference is the pre-pool per-replication body: a fresh App
// built by runSized under the historical stream prefix.
func runSizedReference(t *testing.T, sc Scenario, seed uint64, i int, sizes []float64) Report {
	t.Helper()
	rep, err := sc.runSized(seed, "scenario/"+strconv.Itoa(i), sizes)
	if err != nil {
		t.Fatalf("runSized(%d): %v", i, err)
	}
	return rep
}

func TestScenarioPoolMatchesRunSized(t *testing.T) {
	const seed = 42
	for _, tc := range scenarioPoolCases() {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sc.Validate(); err != nil {
				t.Fatal(err)
			}
			c, err := newScenarioCampaign(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.witness.states != nil, memoExpected(tc.name); got != want {
				t.Fatalf("witness table built = %v, want %v", got, want)
			}
			s := scenarioScratchPool.Get().(*scenarioScratch)
			defer scenarioScratchPool.Put(s)
			s.prepare(c)
			// Consecutive runs on one scratch: any state a reset missed
			// leaks from run i into run i+1 and breaks the comparison.
			for _, i := range []int{0, 1, 7, 63, 1000} {
				got, err := s.runOnce(c, seed, i)
				if err != nil {
					t.Fatalf("runOnce(%d): %v", i, err)
				}
				want := runSizedReference(t, tc.sc, seed, i, c.sizes)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// TestScenarioScratchReuseAcrossCampaigns drives one scratch through
// alternating campaigns whose workloads differ only in a constructor
// parameter invisible to name and snapshot (Heat's diffusion
// coefficient) — exactly the case the fingerprint witness exists for.
// A scratch that wrongly kept the cached pair, or a run verified
// against the other campaign's witness table, would run the wrong
// physics and diverge.
func TestScenarioScratchReuseAcrossCampaigns(t *testing.T) {
	const seed = 9
	mk := func(alpha float64) Scenario {
		sc := testScenario()
		sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, alpha)) }
		return sc
	}
	scA, scB := mk(0.1), mk(0.25)
	cA, err := newScenarioCampaign(scA)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := newScenarioCampaign(scB)
	if err != nil {
		t.Fatal(err)
	}
	if cA.witness.states == nil || cB.witness.states == nil || reflect.DeepEqual(cA.witness.states, cB.witness.states) {
		t.Fatal("want two distinct witness tables")
	}
	s := scenarioScratchPool.Get().(*scenarioScratch)
	defer scenarioScratchPool.Put(s)
	for round := 0; round < 2; round++ {
		for _, cc := range []struct {
			c  *scenarioCampaign
			sc Scenario
		}{{cA, scA}, {cB, scB}} {
			s.prepare(cc.c)
			got, err := s.runOnce(cc.c, seed, round)
			if err != nil {
				t.Fatal(err)
			}
			want := runSizedReference(t, cc.sc, seed, round, cc.c.sizes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d diverged after campaign switch:\n got %+v\nwant %+v", round, got, want)
			}
		}
	}
}

// TestReplicateScenarioMatchesScalarFanOut checks the whole pooled
// fan-out against the pre-pool reference: per-chunk fresh-App runs
// merged in index order.
func TestReplicateScenarioMatchesScalarFanOut(t *testing.T) {
	const seed, n = 3, 96
	for _, tc := range scenarioPoolCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReplicateScenario(tc.sc, seed, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			sizes := tc.sc.patternSizes()
			chunks := replicateChunks
			if chunks > n {
				chunks = n
			}
			total := estimator{w: tc.sc.TotalWork}
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				acc := estimator{w: tc.sc.TotalWork}
				for i := lo; i < hi; i++ {
					rep := runSizedReference(t, tc.sc, seed, i, sizes)
					acc.add(PatternResult{Time: rep.Makespan, Energy: rep.Energy, Attempts: rep.Attempts})
				}
				total.merge(&acc)
			}
			if want := total.estimate(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("pooled estimate diverged from scalar fan-out:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReplicateScenarioChunkValidatedMatchesUnvalidated pins the
// validated fast path to the validating entry point.
func TestReplicateScenarioChunkValidatedMatchesUnvalidated(t *testing.T) {
	sc := testScenario()
	a, err := ReplicateScenarioChunk(sc, 11, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplicateScenarioChunkValidatedCtx(nil, sc, 11, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("validated chunk diverged: %+v vs %+v", a, b)
	}
}

// TestWitnessMemoSkipsReplica counts Advance calls per runner: on the
// memo path the scratch's replica is never stepped and main steps once
// per executed attempt segment; on the fallbacks the replica keeps pace
// with main. Reports match runSized either way.
func TestWitnessMemoSkipsReplica(t *testing.T) {
	const seed = 5
	base := testScenario()
	base.Costs.LambdaS = 4e-3 // frequent rollbacks
	partial := base
	partial.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
	skip := base
	skip.SkipVerification = true
	cases := []struct {
		name  string
		sc    Scenario
		size  int
		segs  int
		memo  bool
		nodes bool
	}{
		{"memo", base, 8, 1, true, false},
		{"memo-partial", partial, 8, 4, true, false},
		{"memo-pernode", func() Scenario {
			sc := base
			sc.Costs.LambdaS = 0
			sc.Nodes = UniformNodes(2, 4e-3, 0)
			return sc
		}(), 8, 1, true, true},
		{"skip-verification", skip, 8, 1, false, false},
		{"over-cap", base, overCapState, 1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[*Runner]*countingRunner{}
			tc.sc.NewWorkload = func() *Runner { return newCountingRunner(tc.size, seen) }
			c, err := newScenarioCampaign(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if (c.witness.states != nil) != tc.memo {
				t.Fatalf("witness table built = %v, want %v", c.witness.states != nil, tc.memo)
			}
			s := new(scenarioScratch)
			s.prepare(c)
			main, replica := seen[s.main], seen[s.replica]
			injected := 0
			for i := 0; i < 6; i++ {
				main.advances, replica.advances = 0, 0
				got, err := s.runOnce(c, seed, i)
				if err != nil {
					t.Fatal(err)
				}
				injected += got.SilentInjected
				if want := runSizedReference(t, tc.sc, seed, i, c.sizes); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d diverged from runSized:\n got %+v\nwant %+v", i, got, want)
				}
				// A partial check that catches an error ends its attempt
				// before the remaining segments.
				if lo, hi := got.Attempts-got.FailStops, (got.Attempts-got.FailStops)*tc.segs; main.advances < lo || main.advances > hi ||
					tc.segs == 1 && main.advances != lo {
					t.Errorf("run %d: main advanced %d times, want %d per executed attempt", i, main.advances, tc.segs)
				}
				wantReplica := main.advances
				if tc.memo {
					wantReplica = 0
				}
				if replica.advances != wantReplica {
					t.Errorf("run %d: replica advanced %d times, want %d", i, replica.advances, wantReplica)
				}
			}
			if injected == 0 {
				t.Fatal("no silent error injected: rollbacks untested")
			}
		})
	}
}

// TestPartialGuardCatchesEscapedSDC pins the partial path's escape
// guard: with a detector blind to every flip, an injected error passes
// the guaranteed verification and must fail the run instead of being
// committed.
func TestPartialGuardCatchesEscapedSDC(t *testing.T) {
	sc := testScenario()
	sc.Costs.LambdaS = 0.05
	sc.Partial = &Partial{Segments: 2, Coverage: 0.5, Cost: 0.4}
	sc.Detector = blindDetector{}
	if _, err := sc.Run(1); err == nil || !strings.Contains(err.Error(), "escaped verification") {
		t.Fatalf("Run = %v, want an escaped-verification error", err)
	}
	if _, err := ReplicateScenario(sc, 1, 4, 1); err == nil || !strings.Contains(err.Error(), "escaped verification") {
		t.Fatalf("ReplicateScenario = %v, want an escaped-verification error", err)
	}
}

// blindDetector fingerprints every state identically.
type blindDetector struct{}

func (blindDetector) Name() string             { return "blind" }
func (blindDetector) Sum([]byte) detect.Digest { return 0 }
