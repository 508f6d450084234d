package remote

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"sensorcer/internal/wire"
)

// shipMsg is the decode/encode pair every replication shape implements.
type shipMsg interface {
	UnmarshalSrpc(shape byte, data []byte) error
	AppendSrpc(buf []byte) ([]byte, error)
}

// shipShape is one replication wire shape under fuzz: a fresh zero
// value to decode into and the shape tag its decoder accepts.
type shipShape struct {
	name  string
	shape byte
	zero  func() shipMsg
}

// shipShapes lists the decoders whose output a backup writes straight
// into its WAL (ship batches, snapshots) or acts on (results, heartbeats).
var shipShapes = []shipShape{
	{"ship batch", shapeShipBatch, func() shipMsg { return &wireShipBatch{} }},
	{"ship result", shapeShipResult, func() shipMsg { return &wireShipResult{} }},
	{"snapshot", shapeShipSnapshot, func() shipMsg { return &wireShipSnapshot{} }},
	{"heartbeat", shapeHeartbeat, func() shipMsg { return &wireHeartbeat{} }},
}

// shipFuzzSeeds builds the seed corpus for FuzzShipShapes: a valid
// encoding of every shape, truncations of a valid batch, a record count
// larger than the bytes left, and other hostile length prefixes. The
// same builder feeds f.Add and the checked-in testdata/fuzz files.
func shipFuzzSeeds() [][]byte {
	enc := func(m shipMsg) []byte {
		b, _ := m.AppendSrpc(nil)
		return b
	}
	batch := enc(&wireShipBatch{Epoch: 7, FirstSeq: 42, Payloads: [][]byte{
		[]byte("w\x00job"), {}, make([]byte, 130),
	}})
	seeds := [][]byte{
		batch,
		enc(&wireShipBatch{Epoch: 3, FirstSeq: 1}),                                // empty batch: position probe
		enc(&wireShipBatch{Epoch: 1, FirstSeq: 1, Payloads: make([][]byte, 128)}), // one byte per record
		enc(&wireShipResult{NextSeq: 1 << 40}),
		enc(&wireShipSnapshot{Epoch: 9, Seq: 128, Data: []byte("snapshot-bytes")}),
		enc(&wireHeartbeat{Epoch: 12}),
		{},
		append(append([]byte(nil), batch...), 0x00), // trailing byte
	}
	for _, n := range []int{1, 2, 3, 4, 8, len(batch) / 2, len(batch) - 1} {
		seeds = append(seeds, append([]byte(nil), batch[:n]...))
	}
	// uvs encodes a run of uvarints (header fields and length prefixes).
	uvs := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = wire.AppendUvarint(b, v)
		}
		return b
	}
	// A record count larger than the bytes that follow it, modest and huge.
	seeds = append(seeds, append(uvs(1, 1, 1000), 0x01, 'x'))
	seeds = append(seeds, uvs(1, 1, 1<<62))
	// A record (batch) or data (snapshot) length past the end of the input.
	seeds = append(seeds, append(uvs(1, 1, 1, 1<<20), 'x'))
	seeds = append(seeds, append(uvs(1, 1, 1<<20), 'x'))
	// An overlong uvarint (overflows 64 bits).
	seeds = append(seeds, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	return seeds
}

// allocated returns the bytes fn allocates on the heap. The process-wide
// counter also sees whatever other goroutines (the fuzz engine's among
// them) allocate meanwhile, so fn, which must be deterministic, runs up
// to four times and the smallest figure counts; the loop stops at the
// first one within bound.
func allocated(bound uint64, fn func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 4 && least > bound; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzShipShapes feeds arbitrary payload bytes to the replication
// decoders. Properties: they never panic; a decode allocates at most one
// slice header per input byte (each record costs at least one byte of
// length prefix) plus the copied bytes plus a fixed allowance for the
// error; a decoder refuses every other shape tag; and whatever decodes
// re-encodes with AppendSrpc to a payload that decodes to the same value.
func FuzzShipShapes(f *testing.F) {
	for _, s := range shipFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := uint64(32*len(data) + 1024)
		for _, s := range shipShapes {
			var m shipMsg
			var err error
			n := allocated(bound, func() { m = s.zero(); err = m.UnmarshalSrpc(s.shape, data) })
			if n > bound {
				t.Fatalf("%s: decoding %d bytes allocated %d", s.name, len(data), n)
			}
			if s.zero().UnmarshalSrpc(s.shape+1, data) == nil {
				t.Fatalf("%s: accepted shape %#x", s.name, s.shape+1)
			}
			if err != nil {
				continue
			}
			re, err := m.AppendSrpc(nil)
			if err != nil {
				t.Fatalf("%s: re-encoding a decoded value: %v", s.name, err)
			}
			again := s.zero()
			if err := again.UnmarshalSrpc(s.shape, re); err != nil {
				t.Fatalf("%s: re-encoded payload does not decode: %v", s.name, err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("%s: round trip changed the value: %+v -> %+v", s.name, m, again)
			}
		}
	})
}

// TestRegenerateShipFuzzCorpus rewrites testdata/fuzz/FuzzShipShapes
// from shipFuzzSeeds, so the checked-in corpus and the in-code seeds
// cannot drift. Run it with
//
//	REMOTE_REGEN_CORPUS=1 go test ./internal/remote -run TestRegenerateShipFuzzCorpus
//
// after changing a replication shape; it is a no-op otherwise.
func TestRegenerateShipFuzzCorpus(t *testing.T) {
	if os.Getenv("REMOTE_REGEN_CORPUS") == "" {
		t.Skip("set REMOTE_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzShipShapes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range shipFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
