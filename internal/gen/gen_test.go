package gen

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

func TestErdosRenyi(t *testing.T) {
	rng := xrand.New(1)
	g := ErdosRenyi(100, 500, rng)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	// Duplicates/self-loops shrink the count slightly; it must stay close.
	if g.NumEdges() < 400 || g.NumEdges() > 500 {
		t.Fatalf("edges = %d, want within [400, 500]", g.NumEdges())
	}
}

func TestBarabasiAlbertStructure(t *testing.T) {
	rng := xrand.New(2)
	g := BarabasiAlbert(200, 3, rng)
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d, want 200", g.NumNodes())
	}
	// Every arc must have its reverse (undirected semantics).
	ok := true
	g.Edges(func(u, v int32, _ int64) bool {
		if !g.HasEdge(v, u) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("BA graph is not symmetric")
	}
	// The undirected edge count is about (n-k-1)*k + clique.
	undirected := g.NumEdges() / 2
	want := int64((200-4)*3 + 6)
	if undirected < want-int64(40) || undirected > want+int64(10) {
		t.Fatalf("undirected edges = %d, want ~%d", undirected, want)
	}
	// Preferential attachment must produce a heavy tail: max degree should
	// well exceed the attachment parameter.
	if s := g.Stats(); s.MaxOut < 10 {
		t.Errorf("BA max degree %d suspiciously small", s.MaxOut)
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n < k+2")
		}
	}()
	BarabasiAlbert(3, 3, xrand.New(1))
}

func TestWattsStrogatz(t *testing.T) {
	rng := xrand.New(3)
	g := WattsStrogatz(100, 4, 0.1, rng)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	// Before dedup each node emits k arcs; rewiring can create duplicates.
	if g.NumEdges() < 380 || g.NumEdges() > 400 {
		t.Fatalf("edges = %d, want ~400", g.NumEdges())
	}
	// beta=0 must be the pure ring lattice.
	ring := WattsStrogatz(10, 2, 0, xrand.New(4))
	for u := int32(0); u < 10; u++ {
		if !ring.HasEdge(u, (u+1)%10) || !ring.HasEdge(u, (u+2)%10) {
			t.Fatalf("ring lattice missing arcs at node %d", u)
		}
	}
}

func TestPowerLawConfiguration(t *testing.T) {
	rng := xrand.New(5)
	g := PowerLawConfiguration(500, 2.0, 100, rng)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d, want 500", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	if s := g.Stats(); s.MaxOut < 5 {
		t.Errorf("power-law max out-degree %d suspiciously small", s.MaxOut)
	}
}

func TestRMATSkew(t *testing.T) {
	rng := xrand.New(6)
	g := RMAT(1024, 8192, DefaultRMAT, rng)
	if g.NumNodes() != 1024 {
		t.Fatalf("nodes = %d, want 1024", g.NumNodes())
	}
	// Heavy skew produces duplicate arcs, so the realized count sits below
	// the nominal m; it must still be within ~25%.
	if g.NumEdges() < 6000 {
		t.Fatalf("edges = %d, want within 25%% of 8192", g.NumEdges())
	}
	s := g.Stats()
	// RMAT with A=0.57 concentrates arcs on low IDs: the max degree should
	// far exceed the mean.
	if float64(s.MaxOut) < 4*s.MeanOut {
		t.Errorf("RMAT not skewed: max out %d vs mean %.1f", s.MaxOut, s.MeanOut)
	}
}

func TestRMATNonPowerOfTwo(t *testing.T) {
	g := RMAT(1000, 4000, DefaultRMAT, xrand.New(7))
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d, want 1000", g.NumNodes())
	}
	g.Edges(func(u, v int32, _ int64) bool {
		if u >= 1000 || v >= 1000 {
			t.Fatalf("edge (%d,%d) out of range", u, v)
		}
		return true
	})
}

func TestRMATBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for probabilities not summing to 1")
		}
	}()
	RMAT(16, 10, RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}, xrand.New(1))
}

func TestPresets(t *testing.T) {
	rng := xrand.New(8)
	for _, name := range AllNames() {
		ds, err := ByName(name, ScaleTiny, rng)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if ds.Name != name {
			t.Errorf("dataset name %q != %q", ds.Name, name)
		}
		if ds.Graph.NumNodes() == 0 || ds.Graph.NumEdges() == 0 {
			t.Errorf("dataset %q is empty", name)
		}
		if ds.PaperNodes == 0 || ds.PaperEdges == 0 {
			t.Errorf("dataset %q missing paper statistics", name)
		}
	}
	if _, err := ByName("nosuch", ScaleTiny, rng); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestPresetScaling(t *testing.T) {
	rng := xrand.New(9)
	small := FlixsterLike(ScaleSmall, rng)
	tiny := FlixsterLike(ScaleTiny, rng)
	if small.Graph.NumNodes() <= tiny.Graph.NumNodes() {
		t.Errorf("small (%d nodes) should exceed tiny (%d nodes)",
			small.Graph.NumNodes(), tiny.Graph.NumNodes())
	}
	wantSmall := int32(30000 / 16)
	if small.Graph.NumNodes() != wantSmall {
		t.Errorf("small flixster nodes = %d, want %d", small.Graph.NumNodes(), wantSmall)
	}
}

func TestDBLPSymmetric(t *testing.T) {
	ds := DBLPLike(ScaleTiny, xrand.New(10))
	ok := true
	ds.Graph.Edges(func(u, v int32, _ int64) bool {
		if !ds.Graph.HasEdge(v, u) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Error("DBLP-like graph must be symmetric (undirected source)")
	}
	if ds.Directed {
		t.Error("DBLP preset must be marked undirected")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "medium", "full"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Errorf("ParseScale(%q): %v", s, err)
		}
		if sc.String() != s {
			t.Errorf("Scale round trip %q -> %q", s, sc.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("expected error for unknown scale")
	}
}

// TestPresetsRepeatable builds every preset twice from one seed and
// requires identical CSR arrays: a dataset must be a function of its
// seed alone, within a process and across processes.
func TestPresetsRepeatable(t *testing.T) {
	for _, name := range AllNames() {
		a, err := ByName(name, ScaleTiny, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name, ScaleTiny, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		aOff, aTgt := a.Graph.CSR()
		bOff, bTgt := b.Graph.CSR()
		aInOff, aSrc, aIDs := a.Graph.InCSR()
		bInOff, bSrc, bIDs := b.Graph.InCSR()
		if !slices.Equal(aOff, bOff) || !slices.Equal(aTgt, bTgt) ||
			!slices.Equal(aInOff, bInOff) || !slices.Equal(aSrc, bSrc) || !slices.Equal(aIDs, bIDs) {
			t.Errorf("%s: two builds from one seed differ (%d vs %d arcs)",
				name, a.Graph.NumEdges(), b.Graph.NumEdges())
		}
	}
}
