package dataset

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// mediumFiles writes one medium-scale preset (EPINIONS stand-in,
// weighted-cascade probabilities) to disk in both formats and returns
// the paths. WC is used so the text path can rebuild the model from the
// graph alone — the fairest possible comparison for the snapshot.
func mediumFiles(tb testing.TB) (snapPath, edgePath string) {
	snapPath, edgePath, _ = presetFiles(tb, gen.ScaleMedium)
	return snapPath, edgePath
}

// presetFiles writes the EPINIONS stand-in at the given scale in both
// formats and returns the paths and the arc count.
func presetFiles(tb testing.TB, scale gen.Scale) (snapPath, edgePath string, arcs int64) {
	tb.Helper()
	dir := tb.TempDir()
	rng := xrand.New(1)
	src, err := NewRegistry().Open("epinions", scale, rng)
	if err != nil {
		tb.Fatal(err)
	}
	snapPath = filepath.Join(dir, "epinions.snap")
	if err := Save(snapPath, SnapshotOf(src, nil)); err != nil {
		tb.Fatal(err)
	}
	edgePath = filepath.Join(dir, "epinions.txt")
	if err := SaveEdgeList(edgePath, src.Dataset.Graph); err != nil {
		tb.Fatal(err)
	}
	return snapPath, edgePath, src.Dataset.Graph.NumEdges()
}

func loadSnapshotPath(tb testing.TB, path string) {
	tb.Helper()
	if _, err := Load(path); err != nil {
		tb.Fatal(err)
	}
}

func loadEdgeListPath(tb testing.TB, path string) {
	tb.Helper()
	g, err := LoadEdgeList(path)
	if err != nil {
		tb.Fatal(err)
	}
	// The edge-list path must also rebuild the probability model to reach
	// the same solver-ready state a snapshot loads directly.
	topic.NewWeightedCascade(g)
}

// BenchmarkSnapshotLoad measures the binary ingestion path against
// rebuilding the same medium-scale dataset from its text edge list.
// The acceptance bar for the snapshot format is a ≥5× speedup.
func BenchmarkSnapshotLoad(b *testing.B) {
	snapPath, edgePath := mediumFiles(b)
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadSnapshotPath(b, snapPath)
		}
	})
	b.Run("edgelist-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadEdgeListPath(b, edgePath)
		}
	})
}

// BenchmarkSnapshotLoadMmap compares the two snapshot ingestion paths
// head to head over the same file: Load (decode into fresh heap
// arrays) versus LoadMmap (alias the page-cache mapping). Throughput
// is close on a warm cache; the separating number is B/op — the mmap
// path's allocations stay flat no matter how large the snapshot is,
// which is what lets beyond-RAM graphs load at all.
func BenchmarkSnapshotLoadMmap(b *testing.B) {
	snapPath, _ := mediumFiles(b)
	b.Run("copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loadSnapshotPath(b, snapPath)
		}
	})
	b.Run("mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := LoadMmap(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSnapshotLoadSpeedup checks, in deterministic terms, what makes a
// snapshot load fast: Load decodes whole arrays, so its allocation count
// is a constant independent of graph size, while the edge-list path
// parses text line by line and allocates in proportion to the arc count.
// The wall-clock ratio swings with machine load, so it is only logged;
// the perf benchmark tracks it as dataset.snapshot_vs_edgelist_x.
func TestSnapshotLoadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale load comparison skipped in -short mode")
	}
	smallSnap, smallEdge, smallArcs := presetFiles(t, gen.ScaleSmall)
	snapPath, edgePath, arcs := presetFiles(t, gen.ScaleMedium)

	allocs := func(f func()) float64 { return testing.AllocsPerRun(2, f) }
	snapSmall := allocs(func() { loadSnapshotPath(t, smallSnap) })
	snapMedium := allocs(func() { loadSnapshotPath(t, snapPath) })
	textSmall := allocs(func() { loadEdgeListPath(t, smallEdge) })
	textMedium := allocs(func() { loadEdgeListPath(t, edgePath) })
	t.Logf("allocations: snapshot %.0f -> %.0f, edge list %.0f -> %.0f, for %d -> %d arcs",
		snapSmall, snapMedium, textSmall, textMedium, smallArcs, arcs)
	if snapMedium > snapSmall {
		t.Errorf("snapshot Load allocations grow with graph size: %.0f at %d arcs, %.0f at %d arcs",
			snapSmall, smallArcs, snapMedium, arcs)
	}
	// The edge-list path must scale with arcs (at least half
	// proportionally), or the comparison above proves nothing.
	if 2*textMedium*float64(smallArcs) < textSmall*float64(arcs) {
		t.Errorf("edge-list allocations %.0f -> %.0f do not grow with arcs %d -> %d",
			textSmall, textMedium, smallArcs, arcs)
	}

	minTime := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	snap := minTime(func() { loadSnapshotPath(t, snapPath) })
	text := minTime(func() { loadEdgeListPath(t, edgePath) })
	t.Logf("snapshot load %v, edge-list rebuild %v (%.1fx)", snap, text, float64(text)/float64(snap))
}
