package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// DeltaResult summarizes one completed ApplyDelta generation swap.
type DeltaResult struct {
	// Generation is the new serving generation.
	Generation uint64
	// TouchedNodes is the number of distinct RR-relevant nodes (targets
	// of mutated arcs) the delta touched.
	TouchedNodes int
	// InvalidatedSets counts RR sets across all carried universes that
	// this delta newly marked stale.
	InvalidatedSets int
	// RepairedSets counts stale RR-set slots resampled during the swap.
	// Every carried universe is repaired in the swap that invalidates
	// it, so RepairedSets equals InvalidatedSets and no stale mark
	// outlives the swap.
	//
	// The three repair fields count RR sets only. Each carried entry's
	// KPT sets are invalidated in the swap too, but left stale: the next
	// ShareSamples solve that locks the entry repairs them on its own
	// generation, as part of the solve and outside RepairDuration.
	RepairedSets int
	// RepairDuration is the wall time spent repairing those slots,
	// summed over the carried universes. It is exactly 0 when the swap
	// repaired nothing.
	RepairDuration time.Duration
	// CarriedUniverses / DroppedUniverses count cached universes moved
	// into the new generation vs left behind because an in-flight
	// session held them.
	CarriedUniverses int
	DroppedUniverses int
}

// ApplyDelta applies one batched graph mutation and atomically swaps
// the Engine to the resulting generation. The swap builds a complete
// successor snapshot — compiled graph (graph.ApplyDelta), rebound topic
// model, fresh sampling pool, empty probability memo — and then carries
// the cached RR-set universes forward: each unlocked cache entry is
// invalidated against the delta's touched nodes (only sets containing a
// mutated arc's target go stale), its stale sets incrementally
// repaired, and re-keyed into the new generation with its stream
// resumed on the new graph. The entry's KPT sets are invalidated alike
// and carried stale, for the next solve that reads them to repair.
// Entries locked by in-flight sessions are left on the old snapshot —
// those sessions finish on their pinned generation and the new
// generation re-samples on demand.
//
// Invalid deltas reject with graph.ErrBadDelta and leave the Engine
// untouched. A concurrent ApplyDelta rejects with ErrSwapInProgress
// (swaps never queue). Cancellation via ctx is honored between carried
// universes; an aborted swap leaves the old generation serving, at the
// cost of the universes already carried (they become cold cache misses).
func (e *Engine) ApplyDelta(ctx context.Context, d *graph.Delta) (*DeltaResult, error) {
	p, err := e.PrepareDelta(d)
	if err != nil {
		return nil, err
	}
	return p.Commit(ctx)
}

// PreparedDelta is a compiled-but-unpublished generation swap: the
// successor graph, model and snapshot exist, but the Engine still
// serves the old generation and no shared state has been touched. The
// holder MUST finish it with exactly one Commit or Abort — the swap
// lock is held in between, so an abandoned PreparedDelta wedges every
// later mutation. The split exists for write-ahead logging: the serve
// layer prepares, appends the delta durably, and only then commits, so
// an append failure can abort with the Engine provably untouched.
type PreparedDelta struct {
	e     *Engine
	old   *snapshot
	next  *snapshot
	remap *graph.EdgeRemap
	res   *DeltaResult
	done  bool
}

// PrepareDelta validates and compiles one batched graph mutation
// without publishing it. Invalid deltas reject with graph.ErrBadDelta;
// a concurrent swap rejects with ErrSwapInProgress.
func (e *Engine) PrepareDelta(d *graph.Delta) (*PreparedDelta, error) {
	if !e.swapMu.TryLock() {
		return nil, fmt.Errorf("core: %w", ErrSwapInProgress)
	}
	old := e.cur.Load()
	ng, remap, err := old.graph.ApplyDelta(d)
	if err != nil {
		e.swapMu.Unlock()
		return nil, fmt.Errorf("core: %w", err)
	}
	nm, err := old.model.Rebind(ng, remap, d.SetProbs)
	if err != nil {
		e.swapMu.Unlock()
		return nil, fmt.Errorf("core: %w", err)
	}
	next := newSnapshot(ng, nm, e.opts)
	return &PreparedDelta{
		e:     e,
		old:   old,
		next:  next,
		remap: remap,
		res: &DeltaResult{
			Generation:   ng.Generation(),
			TouchedNodes: len(remap.Touched),
		},
	}, nil
}

// Generation returns the generation the swap will publish on Commit.
func (p *PreparedDelta) Generation() uint64 { return p.res.Generation }

// Abort discards the prepared swap and releases the swap lock, leaving
// the Engine exactly as before PrepareDelta. Idempotent; a no-op after
// Commit.
func (p *PreparedDelta) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.e.swapMu.Unlock()
}

// Commit carries the cached RR-set universes into the prepared
// snapshot and atomically swaps the Engine to it. Cancellation via ctx
// is honored between carried universes; an aborted commit leaves the
// old generation serving, at the cost of the universes already carried
// (they become cold cache misses). With a background context, Commit
// cannot fail — the property the WAL path relies on, since a durably
// logged delta must always publish.
func (p *PreparedDelta) Commit(ctx context.Context) (*DeltaResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.done {
		return nil, fmt.Errorf("core: prepared delta already committed or aborted")
	}
	p.done = true
	e := p.e
	defer e.swapMu.Unlock()

	old, next, remap, res := p.old, p.next, p.remap, p.res

	// Carry the universe cache. Entries are TryLock'd: an entry held by
	// an in-flight session is simply not carried — blocking the swap on
	// a long solve would defeat the point of snapshot isolation.
	old.mu.Lock()
	keys := make([]universeKey, 0, len(old.universes))
	groups := make([]*sharedGroup, 0, len(old.universes))
	for k, sg := range old.universes {
		keys = append(keys, k)
		groups = append(groups, sg)
	}
	old.mu.Unlock()
	for i, sg := range groups {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %w: %w", ErrCanceled, err)
		}
		select {
		case sg.lock <- struct{}{}:
		default:
			res.DroppedUniverses++
			continue
		}
		// The stale slots are repaired with the stream's seed and the
		// stream resumes on the new generation's pool where the universe
		// ends: the carried sample equals one built cold on the new
		// generation.
		probs := next.edgeProbsFor(sg.gamma).sampling
		res.InvalidatedSets += sg.u.Invalidate(remap.Touched)
		// Stale KPT marks pile up across swaps until a session reads the
		// entry, and that is exact: a set holding no touched node examined
		// no changed arc, so it is still a valid draw.
		sg.kptU.Invalidate(remap.Touched)
		if sg.u.StaleCount() > 0 {
			t0 := time.Now()
			res.RepairedSets += next.pool.RepairUniverse(sg.u, probs, keys[i].seed)
			res.RepairDuration += time.Since(t0)
		}
		carried := &sharedGroup{
			lock:  make(chan struct{}, 1),
			u:     sg.u,
			src:   next.pool.NewStreamAt(probs, keys[i].seed, sg.u.Size()),
			kptU:  sg.kptU,
			gamma: sg.gamma,
		}
		carried.bytes.Store(carried.footprint())
		next.mu.Lock()
		next.universes[keys[i]] = carried
		next.mu.Unlock()
		// Retire the old entry while still holding its lock: a late
		// old-generation session must not lock the same universe through
		// the old snapshot while a new-generation session samples into it.
		// Retired entries read as dead, so such a session retries and
		// builds itself a fresh (cold) entry in the old snapshot's map.
		sg.dead = true
		old.mu.Lock()
		if cur, ok := old.universes[keys[i]]; ok && cur == sg {
			delete(old.universes, keys[i])
		}
		old.mu.Unlock()
		<-sg.lock
		res.CarriedUniverses++
	}

	// Publish: in-flight sessions keep their pinned snapshot; problems
	// built on `old` still resolve through prev until the next swap.
	e.prev.Store(old)
	e.cur.Store(next)
	// The old snapshot's recycled exclusive universes die with its service
	// (see Engine.recycle).
	old.mu.Lock()
	old.free = nil
	old.mu.Unlock()
	e.mutations.Add(1)
	e.rrSetsInvalid.Add(int64(res.InvalidatedSets))
	e.rrSetsRepaired.Add(int64(res.RepairedSets))
	e.repairNanos.Add(int64(res.RepairDuration))
	return res, nil
}
