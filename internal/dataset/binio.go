package dataset

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// binio.go implements the little-endian primitive layer of the snapshot
// writers: a buffered single-pass binWriter that checksums everything it
// writes (CRC-32C). On little-endian hosts the bulk arrays (CSR offsets,
// targets, probability tensors) are written as raw byte views of the
// backing slices — no per-element conversion — so multi-million edge
// arrays stream at memory-copy speed; other hosts fall through to a
// portable conversion loop over a fixed scratch buffer. The on-disk
// format is little-endian either way. The one reader of the format is
// parsePayload (loadmmap.go).

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian gates the zero-copy bulk paths of both directions:
// reinterpreting a numeric slice as bytes, or bytes as a numeric slice,
// matches the on-disk layout only when the host byte order is
// little-endian.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// i32Bytes returns the raw byte view of s (little-endian hosts only).
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

const binScratchSize = 1 << 16

type binWriter struct {
	w       *bufio.Writer
	crc     uint32
	scratch []byte
	err     error
}

func newBinWriter(w io.Writer) *binWriter {
	return &binWriter{w: bufio.NewWriterSize(w, 1<<20), scratch: make([]byte, binScratchSize)}
}

func (b *binWriter) write(p []byte) {
	if b.err != nil {
		return
	}
	b.crc = crc32.Update(b.crc, crcTable, p)
	_, b.err = b.w.Write(p)
}

func (b *binWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.write(buf[:])
}

func (b *binWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.write(buf[:])
}

func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) str(s string) {
	b.u32(uint32(len(s)))
	b.write([]byte(s))
}

func (b *binWriter) bool(v bool) {
	if v {
		b.u32(1)
		return
	}
	b.u32(0)
}

func (b *binWriter) i32Slice(s []int32) {
	b.u64(uint64(len(s)))
	b.i32Chunk(s)
}

// i32Chunk writes raw elements with no length prefix — the streaming
// writer's building block for sections whose count is declared up front.
func (b *binWriter) i32Chunk(s []int32) {
	if hostLittleEndian {
		b.write(i32Bytes(s))
		return
	}
	for len(s) > 0 && b.err == nil {
		n := len(b.scratch) / 4
		if n > len(s) {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b.scratch[4*i:], uint32(s[i]))
		}
		b.write(b.scratch[:4*n])
		s = s[n:]
	}
}

func (b *binWriter) i64Slice(s []int64) {
	b.u64(uint64(len(s)))
	b.i64Chunk(s)
}

func (b *binWriter) i64Chunk(s []int64) {
	if hostLittleEndian {
		b.write(i64Bytes(s))
		return
	}
	for len(s) > 0 && b.err == nil {
		n := len(b.scratch) / 8
		if n > len(s) {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b.scratch[8*i:], uint64(s[i]))
		}
		b.write(b.scratch[:8*n])
		s = s[n:]
	}
}

func (b *binWriter) f32Slice(s []float32) {
	b.u64(uint64(len(s)))
	b.f32Chunk(s)
}

func (b *binWriter) f32Chunk(s []float32) {
	if hostLittleEndian {
		b.write(f32Bytes(s))
		return
	}
	for len(s) > 0 && b.err == nil {
		n := len(b.scratch) / 4
		if n > len(s) {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b.scratch[4*i:], math.Float32bits(s[i]))
		}
		b.write(b.scratch[:4*n])
		s = s[n:]
	}
}

func (b *binWriter) f64Slice(s []float64) {
	b.u64(uint64(len(s)))
	if hostLittleEndian {
		b.write(f64Bytes(s))
		return
	}
	for len(s) > 0 && b.err == nil {
		n := len(b.scratch) / 8
		if n > len(s) {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b.scratch[8*i:], math.Float64bits(s[i]))
		}
		b.write(b.scratch[:8*n])
		s = s[n:]
	}
}

// trailer appends the running CRC (not itself checksummed) and flushes.
func (b *binWriter) trailer() error {
	if b.err != nil {
		return b.err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], b.crc)
	if _, err := b.w.Write(buf[:]); err != nil {
		return err
	}
	return b.w.Flush()
}
