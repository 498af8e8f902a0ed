package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/faults"
)

// walConfig isolates each durability test on its own DatasetSeed (the
// eval workbench cache is process-global) and its own WAL directory.
func walConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := mutateConfig(seed)
	cfg.WALDir = t.TempDir()
	return cfg
}

// firstArc returns an existing arc of the server's flixster/h=4 graph,
// used to build a valid set_probs mutation.
func firstArc(t *testing.T, cfg Config) (int32, int32) {
	t.Helper()
	g := serverGraph(t, cfg, "flixster", 4)
	for u := int32(0); u < g.NumNodes(); u++ {
		if nbrs := g.OutNeighbors(u); len(nbrs) > 0 {
			return u, nbrs[0]
		}
	}
	t.Fatal("graph has no arcs")
	return 0, 0
}

func mutateProb(t *testing.T, url string, u, v int32, p float32) MutateResult {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/mutate", MutateRequest{
		Dataset: "flixster", H: 4,
		SetProbs: []MutateProb{{U: u, V: v, Topic: 0, P: p}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mr MutateResult
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// solveBytes runs the reference solve, on the engine's cached RR
// universes when share is set, and returns the response with
// stats.duration_ms zeroed before re-marshaling: the duration is wall
// clock, everything else in the body is deterministic and must survive
// recovery byte-for-byte.
func solveBytes(t *testing.T, url string, share bool) (SolveResult, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/solve", SolveRequest{
		Dataset: "flixster", H: 4, Mode: "ti-csrm",
		Seed: up(3), Alpha: fp(0.2), Epsilon: 0.3, MaxThetaPerAd: 20000,
		ShareSamples: share,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	canon := sr
	if canon.Stats != nil {
		st := *canon.Stats
		st.DurationMS = 0
		canon.Stats = &st
	}
	out, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return sr, out
}

// recoveredServer simulates a process restart: the workbench cache is
// dropped (each process builds its own engines) and a fresh server runs
// recovery before taking traffic, exactly as cmd/rmserved does.
func recoveredServer(t *testing.T, cfg Config) (*Server, *httptest.Server, int) {
	t.Helper()
	eval.ResetWorkbenchCache()
	s := New(cfg)
	replayed, err := s.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, replayed
}

// TestMutateWALRecoveryBitIdentical is the core durability contract: an
// acked mutation survives a restart, and a recovered server's solve is
// byte-identical to the pre-restart one. A share_samples solve before
// the mutate caches RR universes, so the pre-restart solve runs on
// universes the swap carried and repaired while the recovered server
// samples cold: the two must still agree.
func TestMutateWALRecoveryBitIdentical(t *testing.T) {
	cfg := walConfig(t, 9301)
	u, v := firstArc(t, cfg)
	sA, tsA := newTestServer(t, cfg)
	solveBytes(t, tsA.URL, true)
	mr := mutateProb(t, tsA.URL, u, v, 0.9)
	if mr.Generation != 1 {
		t.Fatalf("mutate generation = %d, want 1", mr.Generation)
	}
	if mr.CarriedUniverses == 0 || mr.InvalidatedSets == 0 {
		t.Fatalf("mutate carried %d universes and invalidated %d sets; want both positive",
			mr.CarriedUniverses, mr.InvalidatedSets)
	}
	srA, bodyA := solveBytes(t, tsA.URL, true)
	if srA.Generation != 1 {
		t.Fatalf("pre-restart solve generation = %d, want 1", srA.Generation)
	}
	tsA.Close()
	sA.Close()

	_, tsB, replayed := recoveredServer(t, cfg)
	if replayed != 1 {
		t.Fatalf("replayed %d deltas, want 1", replayed)
	}
	srB, bodyB := solveBytes(t, tsB.URL, true)
	if srB.Generation != 1 {
		t.Fatalf("post-recovery solve generation = %d, want 1", srB.Generation)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("recovered solve diverges:\n pre  %s\n post %s", bodyA, bodyB)
	}
	resp, body := getBody(t, tsB.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "rmserved_recovery_replayed_deltas 1") {
		t.Fatal("metrics missing rmserved_recovery_replayed_deltas 1")
	}
	if !strings.Contains(string(body), "rmserved_wal_appends_total") {
		t.Fatal("metrics missing rmserved_wal_appends_total")
	}
}

// TestMutateFsyncFailureLeavesEngineUntouched proves the append→commit
// ordering: if the WAL cannot make the delta durable, the client gets a
// 5xx and the engine generation does not move — no acked-but-volatile
// state, no applied-but-unlogged state.
func TestMutateFsyncFailureLeavesEngineUntouched(t *testing.T) {
	cfg := walConfig(t, 9302)
	u, v := firstArc(t, cfg)
	_, ts := newTestServer(t, cfg)

	faults.Set("wal.append.sync", "error")
	defer faults.Reset()
	resp, body := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Dataset: "flixster", H: 4,
		SetProbs: []MutateProb{{U: u, V: v, Topic: 0, P: 0.9}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("mutate with failing fsync: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "WAL append failed") {
		t.Fatalf("error body does not name the WAL: %s", body)
	}
	if g := serverGraph(t, cfg, "flixster", 4); g.Generation() != 0 {
		t.Fatalf("failed append moved the engine to generation %d", g.Generation())
	}

	// With the fault cleared the same mutation goes through.
	faults.Reset()
	if mr := mutateProb(t, ts.URL, u, v, 0.9); mr.Generation != 1 {
		t.Fatalf("mutate after clearing fault: generation %d, want 1", mr.Generation)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "rmserved_wal_append_errors_total 1") {
		t.Fatal("metrics missing rmserved_wal_append_errors_total 1")
	}
	if !strings.Contains(string(body), "rmserved_wal_appends_total 1") {
		t.Fatal("metrics missing rmserved_wal_appends_total 1")
	}
}

// TestCheckpointEndpoint covers the checkpoint/compaction cycle:
// checkpoint at generation 2, one more mutation, and recovery loads the
// snapshot and replays exactly the post-checkpoint tail, with solve
// output byte-identical to the uninterrupted server.
func TestCheckpointEndpoint(t *testing.T) {
	cfg := walConfig(t, 9303)
	u, v := firstArc(t, cfg)
	sA, tsA := newTestServer(t, cfg)
	mutateProb(t, tsA.URL, u, v, 0.3)
	mutateProb(t, tsA.URL, u, v, 0.6)

	resp, body := postJSON(t, tsA.URL+"/v1/checkpoint", CheckpointRequest{Dataset: "flixster", H: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	var cr CheckpointResult
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Generation != 2 || !cr.Truncated || cr.SnapshotBytes <= 0 {
		t.Fatalf("checkpoint result %+v", cr)
	}
	dir := sA.walKeyDir(benchKey{name: "flixster", h: 4})
	if _, err := os.Stat(filepath.Join(dir, checkpointName(2))); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	if mr := mutateProb(t, tsA.URL, u, v, 0.9); mr.Generation != 3 {
		t.Fatalf("post-checkpoint mutate generation %d", mr.Generation)
	}
	_, bodyA := solveBytes(t, tsA.URL, false)
	tsA.Close()
	sA.Close()

	// Recovery must load the generation-2 snapshot and replay only the
	// generation-3 record.
	_, tsB, replayed := recoveredServer(t, cfg)
	if replayed != 1 {
		t.Fatalf("replayed %d deltas after checkpoint, want 1", replayed)
	}
	srB, bodyB := solveBytes(t, tsB.URL, false)
	if srB.Generation != 3 {
		t.Fatalf("recovered generation %d, want 3", srB.Generation)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("checkpoint+replay solve diverges:\n pre  %s\n post %s", bodyA, bodyB)
	}
}

// TestPeriodicCheckpoint waits for the background loop to compact a
// mutated engine's log without any explicit /v1/checkpoint call.
func TestPeriodicCheckpoint(t *testing.T) {
	cfg := walConfig(t, 9304)
	cfg.CheckpointInterval = 20 * time.Millisecond
	u, v := firstArc(t, cfg)
	s, ts := newTestServer(t, cfg)
	mutateProb(t, ts.URL, u, v, 0.9)

	dir := s.walKeyDir(benchKey{name: "flixster", h: 4})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, checkpointName(1))); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicMiddleware proves a panicking handler answers a JSON 500 and
// is counted, rather than killing the connection.
func TestPanicMiddleware(t *testing.T) {
	cfg := mutateConfig(9305)
	_, ts := newTestServer(t, cfg)

	faults.Set("serve.handler", "panic")
	defer faults.Reset()
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "panicked") {
		t.Fatalf("panic body %s (%v)", body, err)
	}

	faults.Reset()
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after reset: %d", resp.StatusCode)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "rmserved_panics_total 1") {
		t.Fatal("metrics missing rmserved_panics_total 1")
	}
}

// TestCheckpointWithoutWAL: a server running without -wal has nothing
// durable to checkpoint and says so.
func TestCheckpointWithoutWAL(t *testing.T) {
	cfg := mutateConfig(9306)
	_, ts := newTestServer(t, cfg)
	resp, body := postJSON(t, ts.URL+"/v1/checkpoint", CheckpointRequest{Dataset: "flixster"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint without WAL: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "without a WAL") {
		t.Fatalf("unexpected body: %s", body)
	}
}

// TestMutateWithoutWALStillWorks pins the non-durable path: no WALDir,
// mutations apply directly.
func TestMutateWithoutWALStillWorks(t *testing.T) {
	cfg := mutateConfig(9307)
	u, v := firstArc(t, cfg)
	_, ts := newTestServer(t, cfg)
	if mr := mutateProb(t, ts.URL, u, v, 0.9); mr.Generation != 1 {
		t.Fatalf("mutate generation = %d, want 1", mr.Generation)
	}
}
