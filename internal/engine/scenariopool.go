package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/faults"
	"respeed/internal/rngx"
)

// This file is the pooled form of the scenario replication hot path.
// Historically every replication of ReplicateScenario rebuilt the whole
// App — workload pair, fault injector, checkpoint tier, meter, verifier
// — from scratch (~2.4k allocations per 50-run estimate). The pooled
// path builds the campaign-wide pieces once per call, keeps the per-run
// pieces in a scratch recycled through a sync.Pool, and resets each
// component in place to the exact state a fresh construction would
// have, so the executions stay bit-identical to Scenario.runSized runs
// (the equivalence tests replay both and compare reports byte for
// byte).

// scenarioCampaign is the per-call shared context of a pooled scenario
// replication: the validated scenario (trace hooks already cleared),
// its precomputed pattern sizes, a pristine prototype workload with its
// serialized initial state, and the clean witness table. All fields are
// read-only once built and shared across worker goroutines.
type scenarioCampaign struct {
	sc    Scenario
	sizes []float64

	// proto is one product of sc.NewWorkload, back at its initial state
	// after stepping the witness table; runs clone it instead of
	// re-invoking the factory (the factory contract is a deterministic
	// fresh construction, so the clones are identical).
	proto     *Runner
	initState []byte

	// witness replaces every run's live replica; empty (nil states)
	// keeps the replica (see buildWitness).
	witness witnessTable
}

// witnessMemoCap bounds one campaign's witness table in bytes. Larger
// trajectories (long runs of big kernels) keep the live replica.
const witnessMemoCap = 1 << 20

// newScenarioCampaign builds the shared context. sc must already be
// validated, with Trace and Obs.TraceSink cleared.
func newScenarioCampaign(sc Scenario) (*scenarioCampaign, error) {
	proto := sc.NewWorkload()
	if proto == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	c := &scenarioCampaign{
		sc:        sc,
		sizes:     sc.patternSizes(),
		proto:     proto,
		initState: append([]byte(nil), proto.state()...),
	}
	c.witness = c.buildWitness()
	// Rewind the prototype: restoring a snapshot is exactly what App
	// relies on for its own rollbacks.
	if err := proto.restore(c.initState); err != nil {
		return nil, fmt.Errorf("engine: rewind workload: %w", err)
	}
	return c, nil
}

// buildWitness steps the prototype through the campaign's pattern sizes
// exactly as App steps its replica — one step per pattern, or
// Partial.Segments steps of w/m — and records the state after every
// step. It returns an empty table, leaving runs on the live replica,
// under SkipVerification (which re-syncs the replica to corrupted
// state), when the table would exceed witnessMemoCap, or when the
// workload's snapshot size is not fixed.
func (c *scenarioCampaign) buildWitness() witnessTable {
	if c.sc.SkipVerification {
		return witnessTable{}
	}
	segs := 1
	if c.sc.Partial != nil {
		segs = c.sc.Partial.Segments
	}
	stride := len(c.initState)
	if stride == 0 || len(c.sizes)*segs > witnessMemoCap/stride {
		return witnessTable{}
	}
	states := make([]byte, 0, len(c.sizes)*segs*stride)
	for _, w := range c.sizes {
		step := w
		if segs > 1 {
			step = w / float64(segs)
		}
		for k := 0; k < segs; k++ {
			c.proto.advance(step)
			st := c.proto.state()
			if len(st) != stride {
				return witnessTable{}
			}
			states = append(states, st...)
		}
	}
	return witnessTable{states: states, stride: stride, segs: segs}
}

// scenarioScratch is the pooled per-chunk working set of scenario
// replication: every per-run component of an App, reset in place
// between runs. One scratch serves one chunk at a time; the pool hands
// it to the next chunk afterwards.
type scenarioScratch struct {
	execRNG    rngx.Stream
	sampledRNG rngx.Stream
	inj        faults.Injector
	agg        AggregateFaults
	perNode    PerNodeFaults
	meter      energy.Meter
	rec        MeterRecorder
	verifier   detect.Verifier
	sampled    detect.SampledVerifier
	single     SingleLevel
	two        TwoLevel
	app        App

	// The cached workload pair, with the witness identifying what it
	// is: reusable only when the campaign's prototype has a matching
	// name, constructor fingerprint and initial state. Workloads whose
	// kernels expose no fingerprint are rebuilt per chunk — names and
	// snapshots alone cannot prove interchangeability (Heat's diffusion
	// coefficient appears in neither).
	main, replica *Runner
	wlName        string
	wlFP          uint64
	wlState       []byte
	haveWL        bool
}

var scenarioScratchPool = sync.Pool{New: func() any { return new(scenarioScratch) }}

// prepare points the scratch at a campaign: wire the internal
// references that survive pooling and establish the workload pair.
func (s *scenarioScratch) prepare(c *scenarioCampaign) {
	s.rec.meter = &s.meter
	if !(s.haveWL &&
		c.proto.hasFP && s.wlFP == c.proto.fp &&
		s.wlName == c.proto.name &&
		bytes.Equal(s.wlState, c.initState)) {
		s.main = c.proto.Clone()
		s.replica = c.proto.Clone()
		s.wlName = c.proto.name
		s.wlFP = c.proto.fp
		s.wlState = append(s.wlState[:0], c.initState...)
		s.haveWL = c.proto.hasFP
	}
}

// runOnce executes replication i of the campaign, bit-identically to
// sc.runSized(seed, "scenario/<i>", sizes) on a fresh App. The report's
// PerNodeErrors is scratch-owned: valid until the next runOnce.
func (s *scenarioScratch) runOnce(c *scenarioCampaign, seed uint64, i int) (Report, error) {
	sc := &c.sc

	// Fault process and partial-verification position stream, under the
	// historical stream names. The aggregate and per-node paths derive
	// them with the no-materialize indexed-suffix hash; the factory path
	// needs the prefix string itself.
	var fp FaultProcess
	var sampledSrc interface{ Intn(int) int }
	switch {
	case sc.Faults != nil:
		prefix := "scenario/" + strconv.Itoa(i)
		p, err := sc.Faults(seed, prefix)
		if err != nil {
			return Report{}, err
		}
		fp = p
		if sc.Partial != nil {
			s.sampledRNG.Reseed(seed, prefix+"/partial-positions")
			sampledSrc = &s.sampledRNG
		}
	case len(sc.Nodes) > 0:
		s.perNode.resetIndexed(sc.Nodes, seed, "scenario/", i)
		fp = &s.perNode
		if sc.Partial != nil {
			s.sampledRNG.ReseedIndexedSuffix(seed, "scenario/", i, "/partial-positions")
			sampledSrc = &s.sampledRNG
		}
	default:
		s.execRNG.ReseedIndexedSuffix(seed, "scenario/", i, "/exec")
		s.inj.Reset(sc.Costs.LambdaS, sc.Costs.LambdaF, &s.execRNG)
		s.agg = AggregateFaults{inj: &s.inj}
		fp = &s.agg
		if sc.Partial != nil {
			// The historical Child("partial-positions") derivation:
			// "scenario/<i>/exec/partial-positions", consuming no exec
			// stream state.
			s.sampledRNG.ReseedIndexedSuffix(seed, "scenario/", i, "/exec/partial-positions")
			sampledSrc = &s.sampledRNG
		}
	}

	var tier Tier
	if sc.TwoLevel != nil {
		s.two.reset(*sc.TwoLevel, sc.Costs.R, int(sc.TotalWork/sc.Plan.W))
		tier = &s.two
	} else {
		s.single.reset(sc.Costs.C, sc.Costs.R)
		tier = &s.single
	}

	var sampled *detect.SampledVerifier
	if sc.Partial != nil {
		s.sampled.Reset(sc.Detector, sampledSrc, sc.Partial.Coverage)
		sampled = &s.sampled
	}

	s.rec.clock = 0
	s.meter.Reinit(sc.Model)
	s.verifier.Reset(sc.Detector)
	if err := s.main.restore(c.initState); err != nil {
		return Report{}, fmt.Errorf("engine: reset workload: %w", err)
	}
	replica := s.replica
	if c.witness.states != nil {
		replica = nil
	} else if err := replica.restore(c.initState); err != nil {
		return Report{}, fmt.Errorf("engine: reset replica: %w", err)
	}

	// Assemble the App by assignment — the configuration is the one
	// NewApp would build, already validated at the campaign level — but
	// keep the corruption and per-node scratch buffers across runs.
	corruptBuf, perNode := s.app.corruptBuf, s.app.perNode
	s.app = App{
		cfg: AppConfig{
			Plan:             sc.Plan,
			Verify:           sc.Costs.V,
			Sizes:            c.sizes,
			Faults:           fp,
			Tier:             tier,
			Recorder:         &s.rec,
			Detector:         sc.Detector,
			Obs:              sc.Obs,
			SkipVerification: sc.SkipVerification,
			Partial:          sc.Partial,
			Sampled:          sampled,
		},
		main:       s.main,
		replica:    replica,
		witness:    c.witness,
		verifier:   &s.verifier,
		rec:        &s.rec,
		corruptBuf: corruptBuf,
		perNode:    perNode,
	}
	return s.app.Run()
}
