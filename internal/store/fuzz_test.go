package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the segment decoder as one
// journal segment on disk. Scan must never panic or fail on a readable
// segment, every frame decodeFrame accepts must re-encode to exactly the
// bytes it was decoded from, and Scan's record and torn-byte counts must
// agree with that frame walk.
func FuzzScanSegment(f *testing.F) {
	frames := [][]byte{
		encodeFrame("k", []byte("v")),
		encodeFrame("", nil),
		encodeFrame("sweep/c17/A/full", []byte(`{"best":1.5e-12,"worst":2.25e-12}`)),
	}
	whole := bytes.Join(frames, nil)
	f.Add(whole)
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(whole[:len(whole)-3])            // torn tail
	f.Add(whole[:frameHeaderSize-1])       // torn header
	for _, bit := range []int{0, 37, 70} { // length, CRC and payload bits
		flipped := bytes.Clone(whole)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Scan(dir)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		off, records := 0, 0
		for off < len(data) {
			rec, n, ok := decodeFrame(data[off:])
			if !ok {
				break
			}
			if re := encodeFrame(rec.key, rec.val); !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("frame at offset %d re-encodes to %x, decoded from %x", off, re, data[off:off+n])
			}
			records++
			off += n
		}
		if len(rep.Segments) != 1 {
			t.Fatalf("Scan found %d segments, want 1", len(rep.Segments))
		}
		ss := rep.Segments[0]
		if ss.Records != records || ss.TornBytes != int64(len(data)-off) || rep.Appends != records {
			t.Fatalf("Scan: %d records, %d torn bytes, %d appends; frame walk: %d records, %d torn bytes",
				ss.Records, ss.TornBytes, rep.Appends, records, len(data)-off)
		}
	})
}
