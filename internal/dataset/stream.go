package dataset

import (
	"fmt"
	"io"

	"repro/internal/gen"
)

// stream.go lets a generator emit an RMSNAP v1 file without ever
// materializing the graph in memory: SnapshotStreamer accepts each
// section of the format in order, in chunks of any size, and enforces
// with a state machine that the declared counts are met exactly. A
// streamer fed the same data as Write on a snapshot without ads
// produces a byte-identical file (same primitive layer, same CRC), so
// streamed snapshots are indistinguishable from frozen in-memory ones
// to every loader — including LoadMmap. This is how graphgen's huge preset writes a
// 100M-edge snapshot in constant memory.

// StreamHeader declares the snapshot's identity and section sizes up
// front; every subsequent Append is validated against it.
type StreamHeader struct {
	Name       string
	Directed   bool
	ProbModel  gen.ProbModel
	PaperNodes int
	PaperEdges int
	NumNodes   int64
	NumEdges   int64
	NumTopics  int
}

// Streaming sections, in file order. The streamer advances only when
// the current section's declared element count has been fully appended.
const (
	secOutOff = iota
	secOutTargets
	secInOff
	secInSources
	secInEdgeIDs
	secTopics
	secAds
	secDone
)

var secNames = [...]string{
	"outOff", "outTargets", "inOff", "inSources", "inEdgeIDs",
	"topic probs", "ads", "done",
}

// SnapshotStreamer writes an RMSNAP v1 file section by section, with an
// empty advertiser roster. Usage:
//
//	st, _ := NewSnapshotStreamer(w, hdr)
//	st.AppendOutOff(...)      // n+1 values total, any chunking
//	st.AppendOutTargets(...)  // m values
//	st.AppendInOff(...)       // n+1 values
//	st.AppendInSources(...)   // m values
//	st.AppendInEdgeIDs(...)   // m values
//	st.AppendTopicProbs(...)  // L×m values (topics back to back)
//	err := st.Finish()
//
// The streamer does not validate CSR structure (monotone offsets, edge
// ranges) — that happens once, at load time, exactly as for Write-built
// files.
type SnapshotStreamer struct {
	bw     *binWriter
	hdr    StreamHeader
	sec    int
	filled int64 // elements appended to the current section
	topic  int   // topics fully appended (secTopics)
	err    error
}

// NewSnapshotStreamer validates the header against the format limits
// and writes everything up to the first bulk section.
func NewSnapshotStreamer(w io.Writer, hdr StreamHeader) (*SnapshotStreamer, error) {
	switch {
	case len(hdr.Name) > maxNameLen:
		return nil, fmt.Errorf("dataset: name length %d exceeds limit %d", len(hdr.Name), maxNameLen)
	case hdr.NumNodes < 0 || hdr.NumNodes >= maxNodes:
		return nil, fmt.Errorf("dataset: node count %d out of range", hdr.NumNodes)
	case hdr.NumEdges < 0 || uint64(hdr.NumEdges) > maxEdges:
		return nil, fmt.Errorf("dataset: edge count %d out of range", hdr.NumEdges)
	case hdr.NumTopics < 1 || hdr.NumTopics > maxTopics:
		return nil, fmt.Errorf("dataset: topic count %d out of range", hdr.NumTopics)
	}
	st := &SnapshotStreamer{bw: newBinWriter(w), hdr: hdr}
	st.bw.header(hdr)
	st.bw.u64(uint64(hdr.NumNodes + 1)) // outOff length prefix
	st.err = st.bw.err
	return st, nil
}

// want returns the declared element count of section sec.
func (st *SnapshotStreamer) want(sec int) int64 {
	switch sec {
	case secOutOff, secInOff:
		return st.hdr.NumNodes + 1
	case secOutTargets, secInSources, secInEdgeIDs:
		return st.hdr.NumEdges
	case secTopics:
		return st.hdr.NumEdges // per topic
	default:
		return 0
	}
}

// enter checks that the streamer is positioned in section sec with room
// for n more elements, advancing across completed sections (and writing
// the next length prefix) as needed.
func (st *SnapshotStreamer) enter(sec int, n int) bool {
	if st.err != nil {
		return false
	}
	if st.sec != sec {
		st.err = fmt.Errorf("dataset: streamer expects %s data, got %s", secNames[st.sec], secNames[sec])
		return false
	}
	if st.filled+int64(n) > st.want(sec) {
		st.err = fmt.Errorf("dataset: %s overflow: %d+%d elements, declared %d",
			secNames[sec], st.filled, n, st.want(sec))
		return false
	}
	st.filled += int64(n)
	return true
}

// advance moves past the current section once it is exactly full,
// emitting the next section's prefix (or count headers) in file order.
func (st *SnapshotStreamer) advance() {
	for st.err == nil && st.sec < secAds && st.filled == st.want(st.sec) {
		if st.sec == secTopics {
			st.topic++
			if st.topic < st.hdr.NumTopics {
				st.bw.u64(uint64(st.hdr.NumEdges)) // next topic's prefix
				st.filled = 0
				st.err = st.bw.err
				continue
			}
		}
		st.sec++
		st.filled = 0
		switch st.sec {
		case secOutTargets, secInSources, secInEdgeIDs:
			st.bw.u64(uint64(st.hdr.NumEdges))
		case secInOff:
			st.bw.u64(uint64(st.hdr.NumNodes + 1))
		case secTopics:
			st.bw.u32(uint32(st.hdr.NumTopics))
			st.bw.u64(uint64(st.hdr.NumEdges)) // first topic's prefix
		case secAds:
			st.bw.u32(0) // ad count
		}
		st.err = st.bw.err
	}
}

// AppendOutOff streams the next chunk of the out-CSR offset array.
func (st *SnapshotStreamer) AppendOutOff(chunk []int64) error {
	if st.enter(secOutOff, len(chunk)) {
		st.bw.i64Chunk(chunk)
		st.advance()
	}
	return st.err
}

// AppendOutTargets streams the next chunk of out-edge targets.
func (st *SnapshotStreamer) AppendOutTargets(chunk []int32) error {
	if st.enter(secOutTargets, len(chunk)) {
		st.bw.i32Chunk(chunk)
		st.advance()
	}
	return st.err
}

// AppendInOff streams the next chunk of the in-CSR offset array.
func (st *SnapshotStreamer) AppendInOff(chunk []int64) error {
	if st.enter(secInOff, len(chunk)) {
		st.bw.i64Chunk(chunk)
		st.advance()
	}
	return st.err
}

// AppendInSources streams the next chunk of in-edge sources.
func (st *SnapshotStreamer) AppendInSources(chunk []int32) error {
	if st.enter(secInSources, len(chunk)) {
		st.bw.i32Chunk(chunk)
		st.advance()
	}
	return st.err
}

// AppendInEdgeIDs streams the next chunk of in-edge out-CSR positions.
func (st *SnapshotStreamer) AppendInEdgeIDs(chunk []int32) error {
	if st.enter(secInEdgeIDs, len(chunk)) {
		st.bw.i32Chunk(chunk)
		st.advance()
	}
	return st.err
}

// AppendTopicProbs streams the next chunk of the current topic's edge
// probabilities; topics are consumed back to back, NumEdges values
// each, without explicit topic boundaries in the call sequence.
func (st *SnapshotStreamer) AppendTopicProbs(chunk []float32) error {
	if st.enter(secTopics, len(chunk)) {
		st.bw.f32Chunk(chunk)
		st.advance()
	}
	return st.err
}

// Finish verifies every declared section is complete and writes the
// CRC trailer. The streamer is unusable afterwards.
func (st *SnapshotStreamer) Finish() error {
	if st.err != nil {
		return st.err
	}
	if st.sec != secAds {
		st.err = fmt.Errorf("dataset: incomplete stream: in %s section (%d/%d elements)",
			secNames[st.sec], st.filled, st.want(st.sec))
		return st.err
	}
	st.sec = secDone
	st.err = st.bw.trailer()
	return st.err
}
