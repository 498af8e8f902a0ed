package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/wal"
)

// MutateEdge is one arc of a mutate request.
type MutateEdge struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// MutateProb is one influence-probability override: the arc (u, v) must
// exist after the batch's edge changes are applied.
type MutateProb struct {
	U     int32   `json:"u"`
	V     int32   `json:"v"`
	Topic int     `json:"topic"`
	P     float32 `json:"p"`
}

// MutateRequest is the body of POST /v1/mutate: one batched graph delta
// against the (dataset, h) engine. All three lists may be combined in
// one batch; an entirely empty batch is legal and just advances the
// generation. The request is atomic — either the whole batch compiles
// into the next generation, or the engine is left untouched.
type MutateRequest struct {
	Dataset string `json:"dataset"`
	// H selects the engine (default Config.DefaultH): each advertiser
	// count is a separate instance with its own graph generations.
	H           int          `json:"h,omitempty"`
	AddEdges    []MutateEdge `json:"add_edges,omitempty"`
	RemoveEdges []MutateEdge `json:"remove_edges,omitempty"`
	SetProbs    []MutateProb `json:"set_probs,omitempty"`
}

// MutateResult is the body of a successful POST /v1/mutate, echoing the
// new serving generation and the RR-universe repair accounting.
type MutateResult struct {
	Dataset string `json:"dataset"`
	H       int    `json:"h"`
	// Generation is the new serving generation; subsequent solve and
	// evaluate responses echo it until the next mutate.
	Generation       uint64 `json:"generation"`
	TouchedNodes     int    `json:"touched_nodes"`
	InvalidatedSets  int    `json:"invalidated_sets"`
	RepairedSets     int    `json:"repaired_sets"`
	CarriedUniverses int    `json:"carried_universes"`
	DroppedUniverses int    `json:"dropped_universes"`
	// RepairMS is the wall time the swap spent resampling the
	// repaired_sets slots and rebuilding their universes; exactly 0 when
	// repaired_sets is 0.
	RepairMS float64 `json:"repair_ms"`
}

// handleMutate applies one batched graph delta to a warm engine and
// swaps its serving generation. In-flight solve sessions finish on the
// generation they pinned at entry; a swap already in progress answers
// 409 (swaps never queue), an invalid delta 400. The swap runs under
// the server's base context rather than the request context, so a
// client hanging up mid-swap cannot abandon a half-carried cache — only
// drain/Close aborts it.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !s.gate.enter() {
		s.met.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	defer s.gate.exit()

	var req MutateRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if req.Dataset == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "dataset is required"})
		return
	}
	h, err := s.resolveH(req.H)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	wb, err := s.workbench(req.Dataset, h)
	if err != nil {
		s.writeDatasetError(w, err)
		return
	}

	d := &graph.Delta{
		AddEdges:    make([]graph.Edge, len(req.AddEdges)),
		RemoveEdges: make([]graph.Edge, len(req.RemoveEdges)),
		SetProbs:    make([]graph.ProbUpdate, len(req.SetProbs)),
	}
	for i, e := range req.AddEdges {
		d.AddEdges[i] = graph.Edge{U: e.U, V: e.V}
	}
	for i, e := range req.RemoveEdges {
		d.RemoveEdges[i] = graph.Edge{U: e.U, V: e.V}
	}
	for i, p := range req.SetProbs {
		d.SetProbs[i] = graph.ProbUpdate{U: p.U, V: p.V, Topic: p.Topic, P: p.P}
	}

	s.met.mutates.Add(1)
	res, err := s.applyMutation(benchKey{name: req.Dataset, h: h}, wb, d)
	if err != nil {
		s.writeMutateError(w, err)
		return
	}
	s.met.sessionsCompleted.Add(1)
	writeJSON(w, http.StatusOK, MutateResult{
		Dataset:          req.Dataset,
		H:                h,
		Generation:       res.Generation,
		TouchedNodes:     res.TouchedNodes,
		InvalidatedSets:  res.InvalidatedSets,
		RepairedSets:     res.RepairedSets,
		CarriedUniverses: res.CarriedUniverses,
		DroppedUniverses: res.DroppedUniverses,
		RepairMS:         float64(res.RepairDuration) / float64(time.Millisecond),
	})
}

// applyMutation runs one delta through the engine, write-ahead logging
// it first when the server has a WAL. The durable ordering is strict:
// prepare (compile the successor generation, engine still untouched) →
// append the delta to the log and fsync → commit (publish the swap) →
// ack. An append failure aborts the prepared swap, so a client error
// response proves the engine did not move; conversely, once the record
// is durable the commit runs under a background context and cannot
// fail, so a crash after the append is replayed to the same state the
// client would have seen acked.
func (s *Server) applyMutation(key benchKey, wb *eval.Workbench, d *graph.Delta) (*core.DeltaResult, error) {
	ws, err := s.walFor(key, wb)
	if err != nil {
		return nil, err
	}
	eng := wb.Engine()
	if ws == nil {
		return eng.ApplyDelta(s.baseCtx, d)
	}

	// The key mutex serializes append order with commit order, so log
	// generations are contiguous even under concurrent mutates.
	ws.lock()
	defer ws.unlock()
	pd, err := eng.PrepareDelta(d)
	if err != nil {
		return nil, err
	}
	// A panic between here and Commit (e.g. an injected failpoint) must
	// not leave the engine's swap lock held forever.
	committed := false
	defer func() {
		if !committed {
			pd.Abort()
		}
	}()

	rec := wal.Record{Dataset: key.name, H: key.h, Generation: pd.Generation(), Delta: d}
	if err := ws.log.Append(rec); err != nil {
		s.met.walAppendErrors.Add(1)
		return nil, fmt.Errorf("serve: mutation not applied, WAL append failed: %w", err)
	}
	s.met.walAppends.Add(1)
	// Crash window for the fault-injection tests: the record is durable
	// but unacked. Recovery must still replay it — durability is decided
	// by the log, not by whether the client heard back.
	_ = faults.Inject("serve.mutate.precommit")

	res, err := pd.Commit(context.Background())
	if err != nil {
		return nil, err
	}
	committed = true
	return res, nil
}

// writeMutateError maps ApplyDelta failures onto the wire contract: a
// swap already in flight answers 409 Conflict (swaps never queue — the
// client retries once the active swap lands), an invalid delta 400, a
// drain-canceled swap 503, anything else 500.
func (s *Server) writeMutateError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrSwapInProgress):
		s.writeError(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	case errors.Is(err, graph.ErrBadDelta):
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	case errors.Is(err, core.ErrCanceled):
		s.met.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "mutation canceled: server is draining"})
	default:
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}
