package engine

import (
	"fmt"

	"respeed/internal/ckpt"
	"respeed/internal/energy"
	"respeed/internal/trace"
)

// Tier is the checkpoint/rollback policy of a full-stack execution. It
// owns the stores, bills checkpoint and recovery time on the app's
// recorder, and decides which pattern execution resumes after an error.
type Tier interface {
	// Init commits the initial state as checkpoint zero (pattern −1).
	Init(x *App) error
	// Commit persists the verified state after pattern committed, and
	// bills the checkpoint cost(s).
	Commit(x *App, pattern, attempt int) error
	// OnVerifyFail rolls back after a detected silent error and
	// returns the pattern index to resume from.
	OnVerifyFail(x *App, pattern int) (resume int, err error)
	// OnFailStop rolls back after a fail-stop error and returns the
	// pattern index to resume from.
	OnFailStop(x *App, pattern int) (resume int, err error)
	// Redo reports whether pattern is a re-execution of previously
	// committed work (run at σ2 even on its first attempt since the
	// rollback).
	Redo(pattern int) bool
	// Stats aggregates checkpoint-store activity across the tier's
	// stores.
	Stats() ckpt.Stats
}

// SingleLevel is the paper's base protocol: one verified checkpoint
// store, checkpoint cost C, recovery cost R, retry the same pattern.
type SingleLevel struct {
	c, r  float64
	store *ckpt.Store
}

// NewSingleLevel builds the tier with a checkpoint ring of the given
// depth (minimum 1).
func NewSingleLevel(c, r float64, depth int) *SingleLevel {
	if depth < 1 {
		depth = 1
	}
	return &SingleLevel{c: c, r: r, store: ckpt.New(depth)}
}

// reset re-derives the tier in place as NewSingleLevel(c, r, 1) would —
// the depth the scenario path always uses — recycling the store's
// snapshot buffers.
func (t *SingleLevel) reset(c, r float64) {
	t.c, t.r = c, r
	if t.store == nil {
		t.store = ckpt.New(1)
	} else {
		t.store.Reset()
	}
}

// Init implements Tier.
func (t *SingleLevel) Init(x *App) error {
	t.store.Stage(x.main.state())
	t.store.MarkVerified()
	if _, err := t.store.Commit(-1, x.rec.Clock()); err != nil {
		return fmt.Errorf("engine: initial checkpoint: %w", err)
	}
	return nil
}

// Commit implements Tier: store first (the snapshot carries the
// pre-checkpoint clock), then bill C.
func (t *SingleLevel) Commit(x *App, pattern, attempt int) error {
	t.store.Stage(x.main.state())
	t.store.MarkVerified()
	if _, err := t.store.Commit(pattern, x.rec.Clock()); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	x.rec.Advance(t.c, energy.Checkpoint, 0)
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt})
	return nil
}

// recover rolls the app back to the store's snapshot, then bills R —
// the historical ExecSim order. The view is read-only and consumed
// before the store can invalidate it: restore copies the bytes out.
func (t *SingleLevel) recover(x *App) error {
	state, err := t.store.RecoverView()
	if err != nil {
		return fmt.Errorf("engine: recover: %w", err)
	}
	if err := x.rollback(state); err != nil {
		return err
	}
	x.rec.Advance(t.r, energy.Recovery, 0)
	return nil
}

// OnVerifyFail implements Tier: retry the same pattern.
func (t *SingleLevel) OnVerifyFail(x *App, pattern int) (int, error) {
	return pattern, t.recover(x)
}

// OnFailStop implements Tier: identical to a silent rollback.
func (t *SingleLevel) OnFailStop(x *App, pattern int) (int, error) {
	return pattern, t.recover(x)
}

// Redo implements Tier: single-level never re-runs committed patterns.
func (t *SingleLevel) Redo(int) bool { return false }

// Stats implements Tier.
func (t *SingleLevel) Stats() ckpt.Stats { return t.store.Stats() }

// TwoLevelSpec parameterizes the two-level tier.
type TwoLevelSpec struct {
	// MemC is the in-memory checkpoint cost (seconds); DiskC the disk
	// checkpoint cost; DiskR the disk recovery cost.
	MemC, DiskC, DiskR float64
	// Every is k ≥ 1: a disk checkpoint follows every k-th pattern.
	Every int
}

// Validate checks the spec.
func (sp TwoLevelSpec) Validate() error {
	if sp.MemC < 0 || sp.DiskC < 0 || sp.DiskR < 0 {
		return fmt.Errorf("engine: negative two-level costs (MemC=%g DiskC=%g DiskR=%g)", sp.MemC, sp.DiskC, sp.DiskR)
	}
	if sp.Every < 1 {
		return fmt.Errorf("engine: disk interval must be ≥ 1 (got %d)", sp.Every)
	}
	return nil
}

// TwoLevel is the memory+disk tier [Benoit, Cavelan, Robert, Sun,
// IPDPS 2016]: cheap in-memory checkpoints after every pattern absorb
// silent errors; expensive disk checkpoints every k patterns survive
// fail-stop crashes, which wipe the memory level and roll the execution
// back up to k−1 committed patterns.
type TwoLevel struct {
	spec  TwoLevelSpec
	r     float64 // memory-level recovery cost (the platform R)
	total int     // application pattern count (the final pattern always hits disk)
	mem   *ckpt.Store
	disk  *ckpt.Store
	// frontier is the highest pattern index ever committed to memory;
	// patterns at or below it that run again after a disk rollback are
	// catch-up re-executions.
	frontier int
}

// NewTwoLevel builds the tier for an application of total patterns.
func NewTwoLevel(spec TwoLevelSpec, memRecovery float64, total int) *TwoLevel {
	return &TwoLevel{
		spec: spec, r: memRecovery, total: total,
		mem: ckpt.New(1), disk: ckpt.New(1), frontier: -1,
	}
}

// reset re-derives the tier in place as NewTwoLevel would, recycling
// both stores' snapshot buffers.
func (t *TwoLevel) reset(spec TwoLevelSpec, memRecovery float64, total int) {
	t.spec, t.r, t.total = spec, memRecovery, total
	if t.mem == nil {
		t.mem, t.disk = ckpt.New(1), ckpt.New(1)
	} else {
		t.mem.Reset()
		t.disk.Reset()
	}
	t.frontier = -1
}

// commitTo stages and commits the current state to a store.
func (t *TwoLevel) commitTo(x *App, store *ckpt.Store, pattern int) error {
	store.Stage(x.main.state())
	store.MarkVerified()
	_, err := store.Commit(pattern, x.rec.Clock())
	return err
}

// restoreFrom rolls the app back to a store's snapshot and returns the
// pattern index the snapshot belongs to.
func (t *TwoLevel) restoreFrom(x *App, store *ckpt.Store) (int, error) {
	snap, err := store.Latest()
	if err != nil {
		return 0, err
	}
	state, err := store.RecoverView()
	if err != nil {
		return 0, err
	}
	if err := x.rollback(state); err != nil {
		return 0, err
	}
	return snap.Pattern, nil
}

// Init implements Tier: the initial state is both disk and memory
// checkpoint zero.
func (t *TwoLevel) Init(x *App) error {
	if err := t.commitTo(x, t.disk, -1); err != nil {
		return fmt.Errorf("engine: initial disk checkpoint: %w", err)
	}
	if err := t.commitTo(x, t.mem, -1); err != nil {
		return fmt.Errorf("engine: initial memory checkpoint: %w", err)
	}
	return nil
}

// Commit implements Tier: a memory checkpoint after every pattern, and
// a disk checkpoint on every k-th pattern (and always for the final
// one, so the result is durable).
func (t *TwoLevel) Commit(x *App, pattern, attempt int) error {
	if err := t.commitTo(x, t.mem, pattern); err != nil {
		return fmt.Errorf("engine: memory checkpoint: %w", err)
	}
	x.rec.Advance(t.spec.MemC, energy.Checkpoint, 0)
	x.rep.MemCommits++
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt, Detail: "memory"})
	if (pattern+1)%t.spec.Every == 0 || pattern == t.total-1 {
		if err := t.commitTo(x, t.disk, pattern); err != nil {
			return fmt.Errorf("engine: disk checkpoint: %w", err)
		}
		x.rec.Advance(t.spec.DiskC, energy.Checkpoint, 0)
		x.rep.DiskCommits++
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt, Detail: "disk"})
	}
	if pattern > t.frontier {
		t.frontier = pattern
	}
	return nil
}

// OnVerifyFail implements Tier: a detected silent error is absorbed by
// the memory level (cost R), retrying the same pattern.
func (t *TwoLevel) OnVerifyFail(x *App, pattern int) (int, error) {
	x.rep.MemRecoveries++
	x.rec.Advance(t.r, energy.Recovery, 0)
	if _, err := t.restoreFrom(x, t.mem); err != nil {
		return 0, fmt.Errorf("engine: memory recovery: %w", err)
	}
	return pattern, nil
}

// OnFailStop implements Tier: the crash wipes the memory level; roll
// back to the last disk checkpoint (cost DiskR), reseed memory from it,
// and resume from the first pattern after the disk snapshot.
func (t *TwoLevel) OnFailStop(x *App, pattern int) (int, error) {
	x.rep.DiskRecoveries++
	x.rec.Advance(t.spec.DiskR, energy.Recovery, 0)
	diskPattern, err := t.restoreFrom(x, t.disk)
	if err != nil {
		return 0, fmt.Errorf("engine: disk recovery: %w", err)
	}
	// The reseed commit is bookkeeping, not a billed checkpoint.
	if err := t.commitTo(x, t.mem, diskPattern); err != nil {
		return 0, fmt.Errorf("engine: reseed memory: %w", err)
	}
	x.rep.PatternsLost += pattern - (diskPattern + 1)
	return diskPattern + 1, nil
}

// Redo implements Tier.
func (t *TwoLevel) Redo(pattern int) bool { return pattern <= t.frontier }

// Stats implements Tier: memory and disk store activity combined.
func (t *TwoLevel) Stats() ckpt.Stats {
	m, d := t.mem.Stats(), t.disk.Stats()
	return ckpt.Stats{
		Commits:      m.Commits + d.Commits,
		Recoveries:   m.Recoveries + d.Recoveries,
		BytesWritten: m.BytesWritten + d.BytesWritten,
		BytesRead:    m.BytesRead + d.BytesRead,
	}
}
