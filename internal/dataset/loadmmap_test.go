package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/topic"
)

// TestLoadMmapRoundTrip: the zero-copy loader must reproduce exactly
// what Load does, with a live mapping accounted in MmapActiveBytes and
// released by Close.
func TestLoadMmapRoundTrip(t *testing.T) {
	want := testSnapshot(t, 21)
	path := filepath.Join(t.TempDir(), "unit.snap")
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	before := MmapActiveBytes()
	got, err := LoadMmap(path)
	if err != nil {
		t.Fatalf("LoadMmap: %v", err)
	}
	requireSameSnapshot(t, want, got)

	if mmapSupported && hostLittleEndian {
		st, _ := os.Stat(path)
		if got.MappedBytes() != st.Size() {
			t.Fatalf("MappedBytes = %d, file size %d", got.MappedBytes(), st.Size())
		}
		if MmapActiveBytes()-before != st.Size() {
			t.Fatalf("MmapActiveBytes delta = %d, want %d", MmapActiveBytes()-before, st.Size())
		}
	}
	if err := got.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if MmapActiveBytes() != before {
		t.Fatalf("MmapActiveBytes = %d after Close, want %d", MmapActiveBytes(), before)
	}
	if err := got.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestParseMappedAlignment: the first bulk array starts at byte
// 56+len(name), so the name length decides whether the i64 offsets are
// naturally aligned. Every name length must parse identically; aligned
// layouts must alias, misaligned ones must fall back to copying.
func TestParseMappedAlignment(t *testing.T) {
	sawAlias, sawCopy := false, false
	for pad := 0; pad < 8; pad++ {
		want := testSnapshot(t, 22)
		want.Name = "padded-name-0123"[:pad]
		raw := encode(t, want)

		// Re-house the payload in 8-byte-aligned memory so the per-pad
		// alias/copy outcome depends only on the name length, exactly as
		// in a (page-aligned) real mapping.
		backing := make([]uint64, (len(raw)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(raw))
		copy(aligned, raw)

		r := &mapReader{data: aligned[:len(raw)-4]}
		got, err := parsePayload(r)
		if err != nil {
			t.Fatalf("pad %d: parsePayload: %v", pad, err)
		}
		requireSameSnapshot(t, want, got)
		if r.aliased > 0 {
			sawAlias = true
		}
		if r.copied > 0 {
			sawCopy = true
		}
	}
	if !sawAlias || !sawCopy {
		t.Fatalf("name sweep exercised aliased=%v copied=%v; want both", sawAlias, sawCopy)
	}
}

// TestLoadAlignsHeapImage: Load reads a plain file into one heap image
// placed so that outOff starts 8-byte aligned whatever the name length.
// On a graph with an even arc count every later bulk array is aligned
// too and aliases the image, so what Load allocates is the image, the
// CRC pass's 1 MiB buffer and a few small headers — no copy of any
// bulk array, at any of the eight name lengths mod 8.
func TestLoadAlignsHeapImage(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian hosts decode every bulk array into a copy")
	}
	// A circulant graph, v → v+1..v+5: 200,000 arcs, a ~3.7 MB file.
	const n, k = 40_000, 5
	src := make([]int32, 0, n*k)
	dst := make([]int32, 0, n*k)
	for v := int32(0); v < n; v++ {
		for d := int32(1); d <= k; d++ {
			src = append(src, v)
			dst = append(dst, (v+d)%n)
		}
	}
	g := graph.FromEdges(n, src, dst)
	s := &Snapshot{Graph: g, Model: topic.NewWeightedCascade(g)}
	const slack = 64 << 10
	dir := t.TempDir()
	for nameLen := 0; nameLen < 8; nameLen++ {
		s.Name = "aligned"[:nameLen]
		path := filepath.Join(dir, "aligned.snap")
		if err := Save(path, s); err != nil {
			t.Fatalf("name length %d: Save: %v", nameLen, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Load(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("name length %d: Load: %v", nameLen, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		bound := uint64(st.Size()) + 1<<20 + slack
		t.Logf("name length %d: Load allocated %d bytes for a %d-byte file (bound %d)",
			nameLen, alloc, st.Size(), bound)
		if alloc > bound {
			t.Errorf("name length %d: Load allocated %d bytes, over the %d-byte bound of an aligned image",
				nameLen, alloc, bound)
		}
		if got.Name != s.Name || got.Graph.NumEdges() != n*k {
			t.Fatalf("name length %d: loaded %q with %d arcs", nameLen, got.Name, got.Graph.NumEdges())
		}
	}
}

func TestLoadMmapGzipFallsBack(t *testing.T) {
	want := testSnapshot(t, 23)
	raw := encode(t, want)
	path := filepath.Join(t.TempDir(), "unit.snap.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMmap(path)
	if err != nil {
		t.Fatalf("LoadMmap(gzip): %v", err)
	}
	if got.MappedBytes() != 0 {
		t.Fatalf("gzip snapshot reports %d mapped bytes, want 0", got.MappedBytes())
	}
	requireSameSnapshot(t, want, got)
}

// TestLoadMmapCorrupt: corruption is an error on the mmap path, never a
// silent fallback to the copy loader.
func TestLoadMmapCorrupt(t *testing.T) {
	raw := encode(t, testSnapshot(t, 24))
	dir := t.TempDir()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	path := filepath.Join(dir, "flipped.snap")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMmap(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("flipped byte: got %v, want ErrBadSnapshot", err)
	}

	path = filepath.Join(dir, "truncated.snap")
	if err := os.WriteFile(path, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMmap(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated: got %v, want ErrBadSnapshot", err)
	}
}

// TestLoadFailsFastOnCorruptLargeDecl is the regression test for the
// allocation-spike bug: Load used to decode the whole file — allocating
// arrays as large as the (attacker- or corruption-controlled) length
// prefixes claimed — before the trailer CRC was ever checked. A file
// that declares 2^30 offsets in a few-KB body must now be rejected by
// the streaming CRC pass without graph-sized allocations.
func TestLoadFailsFastOnCorruptLargeDecl(t *testing.T) {
	raw := encode(t, testSnapshot(t, 25))
	// The outOff length prefix lives right after the fixed header:
	// magic(8) + version(4) + nameLen(4) + name + directed(4) +
	// probModel(4) + paperNodes(8) + paperEdges(8) + n(8).
	nameLen := binary.LittleEndian.Uint32(raw[12:])
	off := 16 + int(nameLen) + 4 + 4 + 8 + 8 + 8
	binary.LittleEndian.PutUint64(raw[off:], 1<<30) // claim 8GB of offsets
	path := filepath.Join(t.TempDir(), "bloated.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load: got %v, want ErrBadSnapshot", err)
	}
	if _, err := LoadMmap(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("LoadMmap: got %v, want ErrBadSnapshot", err)
	}
}

// TestVerifyFileCRCSparse: the fail-fast pass must stream a multi-GB
// sparse file in constant memory and reject it (zero-filled tail means
// the trailer cannot match).
func TestVerifyFileCRCSparse(t *testing.T) {
	raw := encode(t, testSnapshot(t, 26))
	path := filepath.Join(t.TempDir(), "sparse.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Extend far past the payload: a sparse hole on filesystems that
	// support it, and either way a CRC that cannot match.
	if err := os.Truncate(path, int64(len(raw))+1<<28); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load(sparse): got %v, want ErrBadSnapshot", err)
	}
}

func TestLoadMmapMissingFile(t *testing.T) {
	if _, err := LoadMmap(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("LoadMmap on a missing file succeeded")
	}
}

// TestLoadMmapEquivalentToLoad: every byte of observable state must
// match between the two loaders — the contract the engine-level golden
// tests build on.
func TestLoadMmapEquivalentToLoad(t *testing.T) {
	want := testSnapshot(t, 27)
	path := filepath.Join(t.TempDir(), "unit.snap")
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	b, err := LoadMmap(path)
	if err != nil {
		t.Fatalf("LoadMmap: %v", err)
	}
	defer b.Close()
	var bufA, bufB bytes.Buffer
	if err := Write(&bufA, a); err != nil {
		t.Fatalf("re-encode Load result: %v", err)
	}
	if err := Write(&bufB, b); err != nil {
		t.Fatalf("re-encode LoadMmap result: %v", err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("Load and LoadMmap round-trips re-encode differently")
	}
}
