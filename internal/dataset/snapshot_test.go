package dataset

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// testSnapshot builds a small but non-trivial snapshot: R-MAT graph,
// 3-topic TIC tensor, 4 ads with budgets.
func testSnapshot(t testing.TB, seed uint64) *Snapshot {
	t.Helper()
	rng := xrand.New(seed)
	g := gen.RMAT(300, 2400, gen.DefaultRMAT, rng)
	params := topic.DefaultTICParams()
	params.L = 3
	m := topic.NewTICRandom(g, params, rng.Split())
	ads := topic.CompetingAds(4, 3, rng.Split())
	topic.AssignBudgets(ads, topic.FlixsterBudgets(), rng.Split())
	return &Snapshot{
		Name:       "unit",
		Directed:   true,
		ProbModel:  gen.ProbTIC,
		PaperNodes: 30_000,
		PaperEdges: 425_000,
		Graph:      g,
		Model:      m,
		Ads:        ads,
	}
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// requireSameSnapshot asserts got is bit-identical to want: CSR arrays,
// in-adjacency, every topic's probability tensor, ads, metadata.
func requireSameSnapshot(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Name != want.Name || got.Directed != want.Directed ||
		got.ProbModel != want.ProbModel ||
		got.PaperNodes != want.PaperNodes || got.PaperEdges != want.PaperEdges {
		t.Fatalf("metadata mismatch: got %+v", got)
	}
	wo, wt := want.Graph.CSR()
	go_, gt := got.Graph.CSR()
	if !reflect.DeepEqual(wo, go_) || !reflect.DeepEqual(wt, gt) {
		t.Fatalf("CSR arrays differ")
	}
	if got.Graph.NumNodes() != want.Graph.NumNodes() {
		t.Fatalf("node count differs")
	}
	for v := int32(0); v < want.Graph.NumNodes(); v++ {
		if !reflect.DeepEqual(want.Graph.InNeighbors(v), got.Graph.InNeighbors(v)) ||
			!reflect.DeepEqual(want.Graph.InEdgeIDs(v), got.Graph.InEdgeIDs(v)) {
			t.Fatalf("in-adjacency differs at node %d", v)
		}
	}
	if got.Model.NumTopics() != want.Model.NumTopics() {
		t.Fatalf("topic count differs")
	}
	for z := 0; z < want.Model.NumTopics(); z++ {
		if !reflect.DeepEqual(want.Model.TopicProbs(z), got.Model.TopicProbs(z)) {
			t.Fatalf("topic %d tensor differs", z)
		}
	}
	if !reflect.DeepEqual(want.Ads, got.Ads) {
		t.Fatalf("ads differ:\nwant %+v\ngot  %+v", want.Ads, got.Ads)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot(t, 1)
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	requireSameSnapshot(t, want, got)
}

func TestSnapshotRoundTripNoAds(t *testing.T) {
	want := testSnapshot(t, 2)
	want.Ads = nil
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	requireSameSnapshot(t, want, got)
}

func TestSnapshotSaveLoadFile(t *testing.T) {
	want := testSnapshot(t, 3)
	path := filepath.Join(t.TempDir(), "unit.snap")
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameSnapshot(t, want, got)

	ok, err := IsSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("IsSnapshot = %v, %v; want true", ok, err)
	}
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	a := encode(t, testSnapshot(t, 4))
	b := encode(t, testSnapshot(t, 4))
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same snapshot differ")
	}
}

func TestSnapshotCorruptHeader(t *testing.T) {
	raw := encode(t, testSnapshot(t, 5))

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corrupt magic: got %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[8] = 99 // version field
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("bad version: got %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("payload-bitflip", func(t *testing.T) {
		// Any single flipped payload byte must be caught — by a structural
		// check or, for value bytes, by the checksum trailer.
		for _, off := range []int{16, 64, len(raw) / 2, len(raw) - 8} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x40
			if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("bitflip at %d: got %v, want ErrBadSnapshot", off, err)
			}
		}
	})
	t.Run("crc", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)-1] ^= 0x01
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corrupt crc: got %v, want ErrBadSnapshot", err)
		}
	})
}

func TestSnapshotTruncated(t *testing.T) {
	raw := encode(t, testSnapshot(t, 6))
	// Every proper prefix must fail with ErrBadSnapshot, never panic or
	// succeed. Step through a spread of cut points including all short
	// header prefixes.
	cuts := []int{0, 1, 4, 7, 8, 9, 12, 20, 40}
	for c := 64; c < len(raw); c += len(raw) / 37 {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, len(raw)-1)
	for _, c := range cuts {
		if _, err := Read(bytes.NewReader(raw[:c])); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation at %d bytes: got %v, want ErrBadSnapshot", c, err)
		}
	}
}

func TestSnapshotWriteValidation(t *testing.T) {
	if err := Write(&bytes.Buffer{}, &Snapshot{}); err == nil {
		t.Fatal("Write accepted a snapshot without graph/model")
	}
	g1 := gen.ErdosRenyi(10, 20, xrand.New(1))
	g2 := gen.ErdosRenyi(10, 20, xrand.New(2))
	s := &Snapshot{Graph: g1, Model: topic.NewWeightedCascade(g2)}
	if err := Write(&bytes.Buffer{}, s); err == nil {
		t.Fatal("Write accepted a model built on a different graph")
	}
}

// Both loaders reject a snapshot holding an arc probability that is NaN
// or outside [0, 1], the nearest being one ulp above 1 and the negative
// smallest subnormal, and keep loading the boundary values 0, −0, the
// smallest subnormal and 1. The file is well formed otherwise: Write
// does not check probabilities, so only the loaders stand between such
// a file and the kernels.
func TestSnapshotRejectsInvalidProbabilities(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    float32
		ok   bool
	}{
		{"nan", float32(math.NaN()), false},
		{"negative", -0.5, false},
		{"above-one", 1.5, false},
		{"plus-inf", float32(math.Inf(1)), false},
		{"zero", 0, true},
		{"one", 1, true},
		{"negative-zero", float32(math.Copysign(0, -1)), true},
		{"smallest-subnormal", math.SmallestNonzeroFloat32, true},
		{"above-one-by-an-ulp", math.Nextafter32(1, 2), false},
		{"negative-smallest-subnormal", -math.SmallestNonzeroFloat32, false},
	} {
		s := testSnapshot(t, 25)
		probs := make([][]float32, s.Model.NumTopics())
		for z := range probs {
			probs[z] = append([]float32(nil), s.Model.TopicProbs(z)...)
		}
		probs[1][7] = tc.p
		s.Model = topic.FromProbs(s.Graph, probs)
		path := filepath.Join(t.TempDir(), tc.name+".snap")
		if err := Save(path, s); err != nil {
			t.Fatalf("%s: Save: %v", tc.name, err)
		}
		loaders := []struct {
			name string
			load func(string) (*Snapshot, error)
		}{{"Load", Load}, {"LoadMmap", LoadMmap}}
		for _, l := range loaders {
			got, err := l.load(path)
			if tc.ok {
				if err != nil {
					t.Fatalf("%s: %s: %v", tc.name, l.name, err)
				}
				if p := got.Model.TopicProbs(1)[7]; p != tc.p {
					t.Fatalf("%s: %s loaded p = %v, want %v", tc.name, l.name, p, tc.p)
				}
				if err := got.Close(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s: %s: err = %v, want ErrBadSnapshot", tc.name, l.name, err)
			}
		}
	}
}

func TestIsSnapshotOnEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	g := gen.ErdosRenyi(20, 60, xrand.New(1))
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	ok, err := IsSnapshot(path)
	if err != nil || ok {
		t.Fatalf("IsSnapshot(edge list) = %v, %v; want false", ok, err)
	}
	// Empty files are not snapshots either (and must not error).
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = IsSnapshot(empty)
	if err != nil || ok {
		t.Fatalf("IsSnapshot(empty) = %v, %v; want false", ok, err)
	}
}

func TestFromCSRMatchesBuilder(t *testing.T) {
	g := gen.RMAT(200, 1500, gen.DefaultRMAT, xrand.New(9))
	off, tgt := g.CSR()
	g2, err := graph.FromCSR(g.NumNodes(), off, tgt)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		if !reflect.DeepEqual(g.InNeighbors(v), g2.InNeighbors(v)) ||
			!reflect.DeepEqual(g.InEdgeIDs(v), g2.InEdgeIDs(v)) ||
			!reflect.DeepEqual(g.OutNeighbors(v), g2.OutNeighbors(v)) {
			t.Fatalf("FromCSR graph differs at node %d", v)
		}
	}
}

func TestFromCSRRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		n    int32
		off  []int64
		tgt  []int32
	}{
		{"offsets-wrong-len", 2, []int64{0, 1}, []int32{1}},
		{"offsets-nonzero-start", 2, []int64{1, 1, 1}, []int32{1}},
		{"offsets-decreasing", 2, []int64{0, 1, 0}, []int32{1}},
		{"offsets-end-mismatch", 2, []int64{0, 1, 2}, []int32{1}},
		{"target-out-of-range", 2, []int64{0, 1, 1}, []int32{5}},
		{"self-loop", 2, []int64{0, 1, 1}, []int32{0}},
		{"row-unsorted", 3, []int64{0, 2, 2, 2}, []int32{2, 1}},
		{"row-duplicate", 3, []int64{0, 2, 2, 2}, []int32{1, 1}},
		{"negative-n", -1, []int64{0}, nil},
	}
	for _, c := range cases {
		if _, err := graph.FromCSR(c.n, c.off, c.tgt); err == nil {
			t.Errorf("%s: FromCSR accepted invalid input", c.name)
		}
	}
}
