// Package dataset is the ingestion and catalog layer of the repository:
// it owns the versioned binary snapshot format that persists a graph
// together with its topic-aware propagation model (and optionally a
// roster of ads), a streaming text edge-list reader with transparent
// gzip support, and the named-dataset registry the CLIs and the
// experiment harness resolve `-dataset` names against.
//
// The paper's evaluation (Section 5) loads multi-million-edge datasets
// per experiment; rebuilding the graph and the TIC probability tensor
// from text edge lists dominates startup at that scale. Snapshots load
// the exact CSR arrays and per-topic probability tensors back with one
// buffered sequential pass — no parsing, no Builder sort/dedup — and
// round-trip bit-identically: a solve on a loaded snapshot equals a
// solve on the originating in-memory structures, sample for sample.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
)

// ErrBadSnapshot is the sentinel wrapped by every snapshot decoding
// failure: wrong magic, unsupported version, corrupt or truncated
// payload, inconsistent header counts, checksum mismatch. Test with
// errors.Is.
var ErrBadSnapshot = errors.New("dataset: bad snapshot")

func errFormat(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// Snapshot file layout (version 1, all fixed-width fields little-endian,
// written and read in one sequential pass):
//
//	offset  field
//	0       magic "RMSNAP\x00\x01" (8 bytes)
//	8       version   u32 (=1)
//	12      name      u32 length + bytes
//	..      directed  u32 (0/1)
//	..      probModel u32 (gen.ProbModel)
//	..      paperNodes, paperEdges i64
//	..      n (nodes) i64
//	..      outOff    u64 count (=n+1) + count×i64   ┐ graph CSR
//	..      outTargets u64 count (=m)  + count×i32   │ (out-adjacency +
//	..      inOff     u64 count (=n+1) + count×i64   │  in-adjacency
//	..      inSources u64 count (=m)   + count×i32   │  mirror)
//	..      inEdgeIDs u64 count (=m)   + count×i32   ┘
//	..      L (topics) u32
//	..      L × ( u64 count (=m) + count×f32 )         per-edge topic tensor
//	..      h (ads)   u32
//	..      h × ( u64 count (=L) + count×f64 gamma,    item distributions
//	              f64 cpe, f64 budget )
//	..      crc32c of everything above (u32, raw)
//
// The in-adjacency mirror is stored even though it is derivable from
// the out-CSR: rebuilding it is a random-write transpose that dominates
// load time on multi-million-edge graphs, while decoding it is a
// sequential read. Load attaches the arrays through graph.FromCSRArrays
// (bounds-checked; integrity is guarded by the checksum trailer), so
// the loaded graph is bit-identical to the written one.
const (
	snapshotVersion = 1

	maxNameLen = 1 << 12
	maxTopics  = 1 << 10
	maxAds     = 1 << 20
	maxNodes   = 1 << 31
	maxEdges   = 1 << 38
)

var snapshotMagic = [8]byte{'R', 'M', 'S', 'N', 'A', 'P', 0x00, 0x01}

// Snapshot bundles everything one dataset needs to be solved on: the
// graph, the influence-probability model aligned with it, descriptive
// metadata mirroring gen.Dataset, and optionally the advertisers (topic
// distributions, CPEs, budgets) frozen with it.
type Snapshot struct {
	Name      string
	Directed  bool
	ProbModel gen.ProbModel
	// PaperNodes/PaperEdges carry Table 1's full-scale statistics for
	// side-by-side reporting (zero for non-preset graphs).
	PaperNodes int
	PaperEdges int

	Graph *graph.Graph
	Model *topic.Model
	// Ads is optional (may be empty): a frozen advertiser roster, so an
	// instance can be reproduced without re-drawing budgets.
	Ads []topic.Ad

	// mapping is the read-only file mapping backing this snapshot when
	// it was produced by LoadMmap (nil on the copy path). The Graph and
	// Model arrays may alias it; release with Close.
	mapping []byte
}

// Write encodes the snapshot to w in one buffered sequential pass.
func Write(w io.Writer, s *Snapshot) error {
	if s.Graph == nil || s.Model == nil {
		return fmt.Errorf("dataset: snapshot needs a graph and a model")
	}
	if s.Model.Graph() != s.Graph {
		return fmt.Errorf("dataset: snapshot model built on a different graph")
	}
	bw := newBinWriter(w)
	bw.write(snapshotMagic[:])
	bw.u32(snapshotVersion)
	bw.str(s.Name)
	bw.bool(s.Directed)
	bw.u32(uint32(s.ProbModel))
	bw.i64(int64(s.PaperNodes))
	bw.i64(int64(s.PaperEdges))

	bw.i64(int64(s.Graph.NumNodes()))
	outOff, outTargets := s.Graph.CSR()
	bw.i64Slice(outOff)
	bw.i32Slice(outTargets)
	inOff, inSources, inEdgeIDs := s.Graph.InCSR()
	bw.i64Slice(inOff)
	bw.i32Slice(inSources)
	bw.i32Slice(inEdgeIDs)

	l := s.Model.NumTopics()
	bw.u32(uint32(l))
	for z := 0; z < l; z++ {
		bw.f32Slice(s.Model.TopicProbs(z))
	}

	bw.u32(uint32(len(s.Ads)))
	for _, ad := range s.Ads {
		bw.f64Slice(ad.Gamma)
		bw.f64(ad.CPE)
		bw.f64(ad.Budget)
	}
	return bw.trailer()
}

// Read decodes a snapshot written by Write. Any malformed input —
// including a short read — yields an error wrapping ErrBadSnapshot.
func Read(r io.Reader) (*Snapshot, error) {
	br := newBinReader(r)
	var magic [8]byte
	if !br.read(magic[:]) {
		return nil, badRead(br.err)
	}
	if magic != snapshotMagic {
		return nil, errFormat("magic %q is not a snapshot header", magic[:])
	}
	if v := br.u32(); br.err == nil && v != snapshotVersion {
		return nil, errFormat("unsupported version %d (have %d)", v, snapshotVersion)
	}
	s := &Snapshot{}
	s.Name = br.str(maxNameLen)
	s.Directed = br.bool()
	s.ProbModel = gen.ProbModel(br.u32())
	s.PaperNodes = int(br.i64())
	s.PaperEdges = int(br.i64())

	n := br.i64()
	if br.err == nil && (n < 0 || n >= maxNodes) {
		return nil, errFormat("node count %d out of range", n)
	}
	outOff := br.i64Slice(maxNodes + 1)
	outTargets := br.i32Slice(maxEdges)
	inOff := br.i64Slice(maxNodes + 1)
	inSources := br.i32Slice(maxEdges)
	inEdgeIDs := br.i32Slice(maxEdges)
	if br.err != nil {
		return nil, badRead(br.err)
	}
	g, err := graph.FromCSRArrays(int32(n), outOff, outTargets, inOff, inSources, inEdgeIDs)
	if err != nil {
		return nil, errFormat("invalid CSR: %v", err)
	}
	s.Graph = g

	l := br.u32()
	if br.err == nil && (l < 1 || l > maxTopics) {
		return nil, errFormat("topic count %d out of range", l)
	}
	probs := make([][]float32, 0, l)
	for z := uint32(0); z < l && br.err == nil; z++ {
		pz := br.f32Slice(maxEdges)
		if br.err == nil && int64(len(pz)) != g.NumEdges() {
			return nil, errFormat("topic %d has %d probs, graph has %d edges", z, len(pz), g.NumEdges())
		}
		if err := checkProbs(z, pz); err != nil {
			return nil, err
		}
		probs = append(probs, pz)
	}
	if br.err != nil {
		return nil, badRead(br.err)
	}
	s.Model = topic.FromProbs(g, probs)

	h := br.u32()
	if br.err == nil && h > maxAds {
		return nil, errFormat("ad count %d out of range", h)
	}
	if h > 0 {
		s.Ads = make([]topic.Ad, 0, h)
	}
	for i := uint32(0); i < h && br.err == nil; i++ {
		gamma := br.f64Slice(maxTopics)
		if br.err == nil && uint32(len(gamma)) != l {
			return nil, errFormat("ad %d has %d-topic gamma, model has %d", i, len(gamma), l)
		}
		cpe := br.f64()
		budget := br.f64()
		s.Ads = append(s.Ads, topic.Ad{ID: int(i), Gamma: gamma, CPE: cpe, Budget: budget})
	}
	if br.err != nil {
		return nil, badRead(br.err)
	}
	if err := br.trailer(); err != nil {
		return nil, badRead(err)
	}
	return s, nil
}

// checkProbs rejects a topic whose arc probabilities hold a NaN or a
// value outside [0, 1], the rule graph.ApplyDelta applies to SetProbs:
// no loaded model hands a sampling or cascade kernel a probability it
// has no draw rule for. It compares bits, not floats: the bit patterns
// of +0 through 1 are exactly those up to 1's, and −0 is the one other
// value in range; every negative, NaN and value above 1 lies outside.
func checkProbs(z uint32, pz []float32) error {
	for e, p := range pz {
		if b := math.Float32bits(p); !(b <= 0x3f800000 || b == 0x80000000) {
			return errFormat("topic %d arc %d has probability %v outside [0, 1]", z, e, p)
		}
	}
	return nil
}

// badRead normalizes low-level decoding failures: IO truncation
// (io.EOF / io.ErrUnexpectedEOF) becomes an ErrBadSnapshot wrap, real
// transport errors pass through, format errors are already wrapped.
func badRead(err error) error {
	if errors.Is(err, ErrBadSnapshot) {
		return err
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errFormat("truncated file: %v", err)
	}
	return err
}

// Save writes the snapshot to the named file atomically: the bytes go
// to a temp file in the same directory, are fsynced, and only then
// renamed over path (with the directory entry fsynced too). A crash at
// any point leaves either the complete new snapshot or whatever was at
// path before — never a torn file.
func Save(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := faults.Inject("dataset.save.write"); err != nil {
		return fail(err)
	}
	if err := Write(f, s); err != nil {
		return fail(err)
	}
	if err := faults.Inject("dataset.save.sync"); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faults.Inject("dataset.save.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a snapshot from the named file. Gzip-compressed snapshots
// are detected by magic and decompressed transparently. Plain files
// have their trailer CRC verified with a streaming pass before any
// parsing, so a truncated or bit-flipped multi-GB snapshot fails fast
// instead of allocating graph-sized arrays first.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [2]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, badRead(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if hdr[0] == 0x1f && hdr[1] == 0x8b {
		// Gzip hides the trailer offset; the decode pass itself verifies.
		r, err := maybeGzip(f)
		if err != nil {
			return nil, errFormat("gzip header: %v", err)
		}
		return Read(r)
	}
	if err := verifyFileCRC(f); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return Read(bufio.NewReaderSize(f, 1<<20))
}

// verifyFileCRC streams the file once through a fixed 1MB buffer,
// checking the trailing CRC-32C against everything before it — the
// fail-fast integrity gate for uncompressed snapshot files. Memory use
// is constant regardless of file size.
func verifyFileCRC(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < int64(len(snapshotMagic))+4 {
		return errFormat("file too small to be a snapshot (%d bytes)", size)
	}
	var crc uint32
	buf := make([]byte, 1<<20)
	for remain := size - 4; remain > 0; {
		n := int64(len(buf))
		if n > remain {
			n = remain
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return badRead(err)
		}
		crc = crc32.Update(crc, crcTable, buf[:n])
		remain -= n
	}
	var trailer [4]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return badRead(err)
	}
	if stored := binary.LittleEndian.Uint32(trailer[:]); stored != crc {
		return errFormat("checksum mismatch: stored %08x, computed %08x", stored, crc)
	}
	return nil
}

// IsSnapshot reports whether the named file begins with the snapshot
// magic (after transparent gzip detection) — the sniff the registry
// uses to tell snapshot files from text edge lists.
func IsSnapshot(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	r, err := maybeGzip(f)
	if err != nil {
		return false, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil
		}
		return false, err
	}
	return magic == snapshotMagic, nil
}
