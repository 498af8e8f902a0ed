package dataset

import (
	"bytes"
	"testing"
)

// streamSnapshot pushes s through a SnapshotStreamer in chunks of the
// given size, mimicking a generator that never holds a full array.
func streamSnapshot(t *testing.T, s *Snapshot, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := NewSnapshotStreamer(&buf, StreamHeader{
		Name:       s.Name,
		Directed:   s.Directed,
		ProbModel:  s.ProbModel,
		PaperNodes: s.PaperNodes,
		PaperEdges: s.PaperEdges,
		NumNodes:   int64(s.Graph.NumNodes()),
		NumEdges:   s.Graph.NumEdges(),
		NumTopics:  s.Model.NumTopics(),
	})
	if err != nil {
		t.Fatalf("NewSnapshotStreamer: %v", err)
	}
	i64s := func(app func([]int64) error, data []int64) {
		for len(data) > 0 {
			n := min(chunk, len(data))
			if err := app(data[:n]); err != nil {
				t.Fatalf("append: %v", err)
			}
			data = data[n:]
		}
	}
	i32s := func(app func([]int32) error, data []int32) {
		for len(data) > 0 {
			n := min(chunk, len(data))
			if err := app(data[:n]); err != nil {
				t.Fatalf("append: %v", err)
			}
			data = data[n:]
		}
	}
	outOff, outTargets := s.Graph.CSR()
	inOff, inSources, inEdgeIDs := s.Graph.InCSR()
	i64s(st.AppendOutOff, outOff)
	i32s(st.AppendOutTargets, outTargets)
	i64s(st.AppendInOff, inOff)
	i32s(st.AppendInSources, inSources)
	i32s(st.AppendInEdgeIDs, inEdgeIDs)
	for z := 0; z < s.Model.NumTopics(); z++ {
		probs := s.Model.TopicProbs(z)
		for len(probs) > 0 {
			n := min(chunk, len(probs))
			if err := st.AppendTopicProbs(probs[:n]); err != nil {
				t.Fatalf("AppendTopicProbs: %v", err)
			}
			probs = probs[n:]
		}
	}
	if err := st.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

// TestStreamerMatchesWrite: a streamer fed the same data as Write must
// produce a byte-identical file, at any chunking. The streamer writes no
// ads, so the reference snapshot has none.
func TestStreamerMatchesWrite(t *testing.T) {
	s := testSnapshot(t, 31)
	s.Ads = nil
	want := encode(t, s)
	for _, chunk := range []int{1, 7, 256, 1 << 20} {
		if got := streamSnapshot(t, s, chunk); !bytes.Equal(want, got) {
			t.Fatalf("chunk %d: streamed bytes differ from Write", chunk)
		}
	}
}

func TestStreamerNoAds(t *testing.T) {
	s := testSnapshot(t, 32)
	s.Ads = nil
	want := encode(t, s)
	if got := streamSnapshot(t, s, 100); !bytes.Equal(want, got) {
		t.Fatal("streamed bytes differ from Write for adless snapshot")
	}
}

func TestStreamerSequenceErrors(t *testing.T) {
	s := testSnapshot(t, 33)
	hdr := StreamHeader{
		Name: s.Name, Directed: s.Directed, ProbModel: s.ProbModel,
		NumNodes: int64(s.Graph.NumNodes()), NumEdges: s.Graph.NumEdges(),
		NumTopics: s.Model.NumTopics(),
	}
	outOff, outTargets := s.Graph.CSR()

	t.Run("out-of-order", func(t *testing.T) {
		st, err := NewSnapshotStreamer(&bytes.Buffer{}, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendOutTargets(outTargets); err == nil {
			t.Fatal("targets before offsets accepted")
		}
	})
	t.Run("overflow", func(t *testing.T) {
		st, err := NewSnapshotStreamer(&bytes.Buffer{}, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendOutOff(append(append([]int64(nil), outOff...), 0)); err == nil {
			t.Fatal("offset overflow accepted")
		}
	})
	t.Run("incomplete-finish", func(t *testing.T) {
		st, err := NewSnapshotStreamer(&bytes.Buffer{}, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendOutOff(outOff); err != nil {
			t.Fatal(err)
		}
		if err := st.Finish(); err == nil {
			t.Fatal("Finish on an incomplete stream succeeded")
		}
	})
	t.Run("bad-header", func(t *testing.T) {
		bad := hdr
		bad.NumTopics = 0
		if _, err := NewSnapshotStreamer(&bytes.Buffer{}, bad); err == nil {
			t.Fatal("zero-topic header accepted")
		}
	})
}

// TestStreamerOutputLoads: end to end, a streamed file must satisfy
// both loaders.
func TestStreamerOutputLoads(t *testing.T) {
	s := testSnapshot(t, 34)
	s.Ads = nil
	raw := streamSnapshot(t, s, 512)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	requireSameSnapshot(t, s, got)
	got2, err := parseMapped(raw)
	if err != nil {
		t.Fatalf("parseMapped: %v", err)
	}
	requireSameSnapshot(t, s, got2)
}
