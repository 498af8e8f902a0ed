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
// the exact CSR arrays and per-topic probability tensors back from one
// in-memory image of the file (a heap buffer for Load, a read-only
// mapping for LoadMmap), which the bulk arrays alias wherever they are
// aligned — no parsing, no Builder sort/dedup — and round-trip
// bit-identically: a solve on a loaded snapshot equals a solve on the
// originating in-memory structures, sample for sample.
package dataset

import (
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

// Snapshot file layout (version 1, all fixed-width fields little-endian;
// written in one sequential pass, decoded from a complete image by
// parsePayload):
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
// load time on multi-million-edge graphs, while loading it costs one
// read. The loaders attach the arrays through graph.FromCSRArrays
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
	bw.header(StreamHeader{
		Name:       s.Name,
		Directed:   s.Directed,
		ProbModel:  s.ProbModel,
		PaperNodes: s.PaperNodes,
		PaperEdges: s.PaperEdges,
		NumNodes:   int64(s.Graph.NumNodes()),
	})
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

// header writes the fields that open every snapshot, magic through the
// node count n; Write and NewSnapshotStreamer both start with it.
func (b *binWriter) header(h StreamHeader) {
	b.write(snapshotMagic[:])
	b.u32(snapshotVersion)
	b.str(h.Name)
	b.bool(h.Directed)
	b.u32(uint32(h.ProbModel))
	b.i64(int64(h.PaperNodes))
	b.i64(int64(h.PaperEdges))
	b.i64(h.NumNodes)
}

// Read decodes a snapshot written by Write: it reads r to its end and
// parses the image with parseMapped, the one decoder of the format.
// Any malformed input — including a short read or bytes after the
// trailer — yields an error wrapping ErrBadSnapshot.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, badRead(err)
	}
	return parseMapped(data)
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
// are detected by magic and decompressed whole through Read. A plain
// file is first checked against its trailer CRC by verifyFileCRC, in
// constant memory, so a truncated or bit-flipped multi-GB snapshot
// fails before any image is allocated; only then is the file read into
// one heap image (readImage) and parsed by parseMapped, whose bulk
// arrays alias that image wherever they are aligned.
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
		r, err := maybeGzip(f)
		if err != nil {
			return nil, errFormat("gzip header: %v", err)
		}
		return Read(r)
	}
	size, err := verifyFileCRC(f)
	if err != nil {
		return nil, err
	}
	img, err := readImage(f, size)
	if err != nil {
		return nil, err
	}
	return parseMapped(img)
}

// readImage reads the size-byte snapshot file f into one heap buffer,
// placed so that the first bulk array (outOff, 56+len(name) bytes in)
// starts 8-byte aligned: the buffer is a []int64 and the image begins
// pad bytes into it, pad taken from the u32 name length at byte 12.
// With that placement outOff and every i32/f32 section alias the image;
// only inOff, behind m i32 targets, can still land misaligned and be
// copied.
func readImage(f *os.File, size int64) ([]byte, error) {
	var nameLen [4]byte
	if _, err := f.ReadAt(nameLen[:], 12); err != nil {
		return nil, badRead(err)
	}
	pad := int64(-binary.LittleEndian.Uint32(nameLen[:]) & 7)
	img := i64Bytes(make([]int64, (pad+size+7)/8))[pad : pad+size]
	if _, err := f.ReadAt(img, 0); err != nil {
		return nil, badRead(err)
	}
	return img, nil
}

// verifyFileCRC streams the file once through a fixed 1MB buffer,
// checking the trailing CRC-32C against everything before it — the
// fail-fast integrity gate for uncompressed snapshot files — and
// returns the file's size. Memory use is constant regardless of file
// size.
func verifyFileCRC(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size < int64(len(snapshotMagic))+4 {
		return 0, errFormat("file too small to be a snapshot (%d bytes)", size)
	}
	var crc uint32
	buf := make([]byte, 1<<20)
	for remain := size - 4; remain > 0; {
		n := int64(len(buf))
		if n > remain {
			n = remain
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return 0, badRead(err)
		}
		crc = crc32.Update(crc, crcTable, buf[:n])
		remain -= n
	}
	var trailer [4]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return 0, badRead(err)
	}
	if stored := binary.LittleEndian.Uint32(trailer[:]); stored != crc {
		return 0, errFormat("checksum mismatch: stored %08x, computed %08x", stored, crc)
	}
	return size, nil
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
