package dataset

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	ao, at := a.CSR()
	bo, bt := b.CSR()
	if a.NumNodes() != b.NumNodes() || !reflect.DeepEqual(ao, bo) || !reflect.DeepEqual(at, bt) {
		t.Fatalf("graphs differ: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
}

// TestReadEdgeListMatchesGraphReader pins the fast streaming parser to
// the reference implementation in internal/graph.
func TestReadEdgeListMatchesGraphReader(t *testing.T) {
	g := gen.RMAT(500, 4000, gen.DefaultRMAT, xrand.New(11))
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	ref, err := graph.ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, ref, got)
	sameGraph(t, g, got)
}

func TestReadEdgeListQuirks(t *testing.T) {
	// Comments, blank lines, tabs, carriage returns, extra columns, and a
	// header fixing a trailing isolated node.
	in := "# nodes 6 edges 4\r\n" +
		"\n" +
		"# a comment\n" +
		"0 1\n" +
		"1\t2\r\n" +
		"  2   3   extra-ignored\n" +
		"3 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes, %d edges; want 6, 4", g.NumNodes(), g.NumEdges())
	}
	ref, err := graph.ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, ref, g)
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"one-field":       "0\n",
		"non-numeric":     "0 x\n",
		"overflow":        "0 99999999999\n",
		"exceeds-declare": "# nodes 2 edges 1\n0 5\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestLoadEdgeListGzip(t *testing.T) {
	g := gen.ErdosRenyi(100, 600, xrand.New(3))
	dir := t.TempDir()

	plain := filepath.Join(dir, "g.txt")
	if err := SaveEdgeList(plain, g); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "g.txt.gz")
	if err := SaveEdgeList(zipped, g); err != nil {
		t.Fatal(err)
	}
	// The .gz file must really be gzip.
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	gp, err := LoadEdgeList(plain)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	gz, err := LoadEdgeList(zipped)
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	sameGraph(t, g, gp)
	sameGraph(t, g, gz)

	// Sniffing is by content: a gzip stream under a non-.gz name loads too.
	sneaky := filepath.Join(dir, "sneaky.txt")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sneaky, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gs, err := LoadEdgeList(sneaky)
	if err != nil {
		t.Fatalf("sneaky gzip: %v", err)
	}
	sameGraph(t, g, gs)
}

func TestLoadEdgeListMissingFile(t *testing.T) {
	if _, err := LoadEdgeList(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("expected error for missing file")
	}
}

// Isolated trailing nodes survive only when the header declares the node
// count — the property the header exists for.
func TestHeaderPreservesIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(10, 1)
	b.AddEdge(0, 1) // nodes 2..9 are isolated
	g := b.Build()
	path := filepath.Join(t.TempDir(), "iso.txt")
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 10 {
		t.Errorf("isolated nodes lost: %d nodes, want 10", g2.NumNodes())
	}
}
