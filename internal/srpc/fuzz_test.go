package srpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"sensorcer/internal/wire"
)

// fuzzSeedFrames builds representative wire inputs for the seed corpus:
// valid frames both ways, truncations, hostile length prefixes, and
// inputs that do not open with a frame tag. The same builders feed f.Add
// so the checked-in corpus under testdata/fuzz and the in-code seeds stay
// consistent.
func fuzzSeedFrames() [][]byte {
	var seeds [][]byte
	// A valid request frame (ShapeJSON payload).
	b := beginFrame(nil)
	b, _ = appendRequest(b, 1, "repl.ship.s0", "tok", json.RawMessage(`{"n":1}`))
	req := append([]byte(nil), finishFrame(b, frameRequest)...)
	seeds = append(seeds, req)
	// A valid success response and a valid error response.
	b = beginFrame(nil)
	b, _ = appendResponse(b, 2, "", "ok")
	seeds = append(seeds, append([]byte(nil), finishFrame(b, frameResponse)...))
	b = beginFrame(nil)
	b, _ = appendResponse(b, 3, "boom", nil)
	seeds = append(seeds, append([]byte(nil), finishFrame(b, frameResponse)...))
	// Truncations of the valid request at every interesting boundary.
	for _, n := range []int{1, 2, 3, len(req) / 2, len(req) - 1} {
		if n < len(req) {
			seeds = append(seeds, append([]byte(nil), req[:n]...))
		}
	}
	// Hostile length prefixes: over MaxFrame, and huge-but-legal with no body.
	seeds = append(seeds, append([]byte{frameRequest}, wire.AppendUvarint(nil, MaxFrame+1)...))
	seeds = append(seeds, append([]byte{frameResponse}, wire.AppendUvarint(nil, MaxFrame-1)...))
	// Overlong uvarint length encoding.
	seeds = append(seeds, append([]byte{frameRequest}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}...))
	// Inputs both sides must reject at their first byte: the 0xBF
	// capability line earlier versions opened every connection with, a
	// corrupted copy of it, that line followed by a valid frame, a JSON
	// request line, and binary junk behind a request tag.
	hello := []byte{0xBF, 's', 'b', '1', '\n'}
	seeds = append(seeds, append([]byte(nil), hello...))
	seeds = append(seeds, []byte{0xBF, 'x', 'b', '1', '\n'})
	seeds = append(seeds, append(append([]byte(nil), hello...), req...))
	seeds = append(seeds, []byte(`{"id":1,"method":"add","params":{}}`+"\n"))
	seeds = append(seeds, []byte{0xB1, 0xB2, 0xBF, 0x00, 0xFF})
	return seeds
}

// readFrames feeds data through readFrame exactly as one side's
// connection loop does, handing each frame to decode until the first
// error (where the loop drops the connection). It checks the properties
// every read keeps: a first byte the side does not accept fails without
// reading past it, a failed read leaves nothing in the buffer, and a
// claimed length never allocates more than the bytes received plus one
// read chunk.
func readFrames(t *testing.T, data []byte, accepts func(byte) bool, decode func(tag byte, body []byte)) {
	src := bytes.NewReader(data)
	r := bufio.NewReader(src)
	consumed := func() int { return len(data) - src.Len() - r.Buffered() }
	for {
		start := consumed()
		var body []byte
		tag, err := readFrame(r, &body, accepts)
		if start < len(data) && !accepts(data[start]) {
			if err == nil || consumed() != start+1 {
				t.Fatalf("tag %#x at %d: err %v after reading to %d", data[start], start, err, consumed())
			}
			return
		}
		if err != nil {
			if len(body) != 0 {
				t.Fatalf("failed read left %d bytes in the buffer", len(body))
			}
			return
		}
		if cap(body) > len(data)+(64<<10) {
			t.Fatalf("claimed length allocated %d bytes for %d input bytes", cap(body), len(data))
		}
		decode(tag, body)
	}
}

// FuzzDecodeFrame drives raw bytes through the read path both ends of a
// connection run — readFrame with the server's and with the client's
// accepted tags — and decodes each request or response body. Properties:
// never panic, bounded reads (see readFrames), and no decoded method
// name longer than any encodable one.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		decode := func(tag byte, body []byte) {
			switch tag {
			case frameRequest:
				req, sc, ok := decodeRequest(body, scratch)
				scratch = sc
				if ok && len(req.method) > len(body)+len(methodPrefixes[len(methodPrefixes)-1])+32 {
					t.Fatalf("method longer than any encodable name: %d", len(req.method))
				}
			case frameResponse:
				_, _ = decodeResponse(body)
			}
		}
		readFrames(t, data, isServerFrame, decode)
		readFrames(t, data, isClientFrame, decode)
	})
}

// FuzzReadUvarint pins the overlong-encoding and overflow rejection of
// the frame-length reader.
func FuzzReadUvarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x7f})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := readUvarint(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and re-decode to itself.
		enc := wire.AppendUvarint(nil, v)
		got, err := readUvarint(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil || got != v {
			t.Fatalf("uvarint %d re-decode = %d, %v", v, got, err)
		}
		// And the wire package's consumer must agree byte for byte.
		wv, rest, ok := wire.ConsumeUvarint(data)
		if !ok || wv != v {
			t.Fatalf("ConsumeUvarint = %d, %v; readUvarint = %d", wv, ok, v)
		}
		_ = rest
	})
}
