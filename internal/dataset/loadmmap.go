package dataset

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topic"
)

// loadmmap.go holds the one decoder of the RMSNAP v1 format and the
// zero-copy loader built on it. parseMapped/parsePayload decode a
// complete in-memory image of a snapshot file: the read-only mapping
// LoadMmap makes, the aligned heap image Load reads, or the bytes Read
// drains from a reader. On little-endian hosts the bulk arrays (CSR
// offsets/targets, the topic probability tensor) come back as slice
// views directly into the image — no per-array allocation, no copy.
//
// LoadMmap maps the file read-only, so load time is independent of
// file size (after the one sequential CRC pass). Multi-process
// deployments share one physical copy of the graph through the page
// cache, and a multi-GB snapshot loads without a multi-GB heap: the
// mapping is file-backed, reclaimable memory. The mapping is PROT_READ
// — any write through an aliased slice faults immediately, which is the
// guard against code mutating what it believes is private memory.
//
// Alignment is checked per array (array offsets depend on the
// variable-length name field and on the arc count's parity): an array
// whose bytes are not naturally aligned for its element type, or any
// array on a big-endian host, is decoded into a fresh copy instead, so
// the parser is correct for every layout and host and zero-copy for the
// common aligned ones.
//
// Fallbacks: gzip snapshots, big-endian hosts, platforms without mmap,
// and mmap syscall failures all degrade gracefully to Load, which
// parses a heap image with the same parser. A corrupt file is an error
// on both paths, never a fallback.

// mmapActive tracks the summed bytes of all live snapshot mappings in
// the process — the figure rmserved exports as
// rmserved_snapshot_mmap_bytes.
var mmapActive atomic.Int64

// MmapActiveBytes returns the total bytes of snapshot file mappings
// currently held by the process (grows on LoadMmap, shrinks on
// Snapshot.Close).
func MmapActiveBytes() int64 { return mmapActive.Load() }

// LoadMmap loads a snapshot with the zero-copy mapping path, falling
// back to Load when the file or host cannot support it (gzip input,
// big-endian host, mmap unavailable or failing). The returned
// Snapshot's arrays may alias the mapping: release it with Close when
// the snapshot is no longer in use, and never mutate the graph or
// model in place (use graph deltas, which build successor arrays).
func LoadMmap(path string) (*Snapshot, error) {
	if !mmapSupported || !hostLittleEndian {
		return Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var hdr [2]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, badRead(err)
	}
	if hdr[0] == 0x1f && hdr[1] == 0x8b {
		return Load(path) // gzip: nothing to alias, decompress via the copy path
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return Load(path)
	}
	s, err := parseMapped(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	s.mapping = data
	mmapActive.Add(size)
	return s, nil
}

// Close releases the snapshot's file mapping, if any. Copy-loaded
// snapshots are a no-op. After Close every array that aliased the
// mapping is invalid — Close only when no Engine or session still
// references the snapshot's graph or model.
func (s *Snapshot) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	mmapActive.Add(-int64(len(m)))
	return munmapFile(m)
}

// MappedBytes returns the size of the file mapping backing this
// snapshot, or 0 for a copy-loaded one.
func (s *Snapshot) MappedBytes() int64 { return int64(len(s.mapping)) }

// parseMapped decodes a snapshot from a complete in-memory image — a
// file mapping, a heap image or a drained reader — verifying the
// trailer CRC once over the whole payload before any parsing, then
// aliasing each naturally-aligned bulk array. The trailer is the
// image's last 4 bytes, so any bytes after a snapshot are rejected.
func parseMapped(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+4 {
		return nil, errFormat("file too small to be a snapshot (%d bytes)", len(data))
	}
	payload := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, crcTable); got != stored {
		return nil, errFormat("checksum mismatch: stored %08x, computed %08x", stored, got)
	}
	return parsePayload(&mapReader{data: payload})
}

// parsePayload decodes the CRC-verified payload behind r.
func parsePayload(r *mapReader) (*Snapshot, error) {
	magic := r.take(len(snapshotMagic))
	if r.err != nil {
		return nil, r.err
	}
	if [8]byte(magic) != snapshotMagic {
		return nil, errFormat("magic %q is not a snapshot header", magic)
	}
	if v := r.u32(); r.err == nil && v != snapshotVersion {
		return nil, errFormat("unsupported version %d (have %d)", v, snapshotVersion)
	}
	s := &Snapshot{}
	s.Name = r.str(maxNameLen)
	s.Directed = r.bool()
	s.ProbModel = gen.ProbModel(r.u32())
	s.PaperNodes = int(r.i64())
	s.PaperEdges = int(r.i64())

	n := r.i64()
	if r.err == nil && (n < 0 || n >= maxNodes) {
		return nil, errFormat("node count %d out of range", n)
	}
	outOff := mapI64Slice(r, maxNodes+1)
	outTargets := mapI32Slice(r, maxEdges)
	inOff := mapI64Slice(r, maxNodes+1)
	inSources := mapI32Slice(r, maxEdges)
	inEdgeIDs := mapI32Slice(r, maxEdges)
	if r.err != nil {
		return nil, r.err
	}
	g, err := graph.FromCSRArrays(int32(n), outOff, outTargets, inOff, inSources, inEdgeIDs)
	if err != nil {
		return nil, errFormat("invalid CSR: %v", err)
	}
	s.Graph = g

	l := r.u32()
	if r.err == nil && (l < 1 || l > maxTopics) {
		return nil, errFormat("topic count %d out of range", l)
	}
	probs := make([][]float32, 0, l)
	for z := uint32(0); z < l && r.err == nil; z++ {
		pz := mapF32Slice(r, maxEdges)
		if r.err == nil && int64(len(pz)) != g.NumEdges() {
			return nil, errFormat("topic %d has %d probs, graph has %d edges", z, len(pz), g.NumEdges())
		}
		if err := checkProbs(z, pz); err != nil {
			return nil, err
		}
		probs = append(probs, pz)
	}
	if r.err != nil {
		return nil, r.err
	}
	s.Model = topic.FromProbs(g, probs)

	h := r.u32()
	if r.err == nil && h > maxAds {
		return nil, errFormat("ad count %d out of range", h)
	}
	if h > 0 {
		s.Ads = make([]topic.Ad, 0, h)
	}
	for i := uint32(0); i < h && r.err == nil; i++ {
		gamma := mapF64Copy(r, maxTopics)
		if r.err == nil && uint32(len(gamma)) != l {
			return nil, errFormat("ad %d has %d-topic gamma, model has %d", i, len(gamma), l)
		}
		cpe := r.f64()
		budget := r.f64()
		s.Ads = append(s.Ads, topic.Ad{ID: int(i), Gamma: gamma, CPE: cpe, Budget: budget})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.data) {
		return nil, errFormat("%d trailing bytes after snapshot payload", len(r.data)-r.off)
	}
	return s, nil
}

// mapReader is the decoding cursor over a complete snapshot payload
// (the image minus its CRC trailer). Integrity is already guaranteed by
// the up-front CRC pass, so reads only bounds-check.
type mapReader struct {
	data []byte
	off  int
	err  error
	// aliased/copied count bulk arrays returned as image views vs
	// decoded into fresh memory (misaligned layouts) — test observables.
	aliased int
	copied  int
}

// take returns the next n payload bytes without copying.
func (r *mapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = errFormat("truncated file: need %d bytes at offset %d of %d", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *mapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *mapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *mapReader) i64() int64   { return int64(r.u64()) }
func (r *mapReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *mapReader) bool() bool   { return r.u32() != 0 }

func (r *mapReader) str(max uint64) string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if uint64(n) > max {
		r.err = errFormat("string length %d exceeds limit %d", n, max)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *mapReader) lenPrefix(max uint64) (int, bool) {
	n := r.u64()
	if r.err != nil {
		return 0, false
	}
	if n > max {
		r.err = errFormat("slice length %d exceeds limit %d", n, max)
		return 0, false
	}
	return int(n), true
}

// mapSlice reads one length-prefixed bulk array: a direct view into the
// image when the host is little-endian and the bytes are naturally
// aligned for T, a decoded copy otherwise (alignment varies with the
// preceding variable-length fields). The cast mirrors binio's byte-view
// primitives, in the opposite direction, and is defined behavior
// exactly because the byte order and alignment are checked first.
func mapSlice[T any](r *mapReader, max uint64, elemSize int, fill func([]T, []byte)) []T {
	n, ok := r.lenPrefix(max)
	if !ok {
		return nil
	}
	raw := r.take(n * elemSize)
	if r.err != nil || n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%uintptr(elemSize) == 0 {
		r.aliased++
		return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n)
	}
	r.copied++
	out := make([]T, n)
	fill(out, raw)
	return out
}

func mapI32Slice(r *mapReader, max uint64) []int32 {
	return mapSlice(r, max, 4, func(dst []int32, raw []byte) {
		for j := range dst {
			dst[j] = int32(binary.LittleEndian.Uint32(raw[4*j:]))
		}
	})
}

func mapI64Slice(r *mapReader, max uint64) []int64 {
	return mapSlice(r, max, 8, func(dst []int64, raw []byte) {
		for j := range dst {
			dst[j] = int64(binary.LittleEndian.Uint64(raw[8*j:]))
		}
	})
}

func mapF32Slice(r *mapReader, max uint64) []float32 {
	return mapSlice(r, max, 4, func(dst []float32, raw []byte) {
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
	})
}

// mapF64Copy always copies: ad gammas are tiny and handed to callers
// that treat them as ordinary heap slices.
func mapF64Copy(r *mapReader, max uint64) []float64 {
	n, ok := r.lenPrefix(max)
	if !ok {
		return nil
	}
	raw := r.take(n * 8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for j := range out {
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return out
}
