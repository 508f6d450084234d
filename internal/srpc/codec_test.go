package srpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/wire"
)

// pointShape is a test-only hot shape: both marshal directions plus a
// hit counter proving the fast path (not the JSON fallback) carried it.
type pointShape struct {
	X, Y int64
}

const shapePoint byte = 200 // test-only tag, outside remote/wire ranges

var pointFastDecodes atomic.Int64

func (p pointShape) SrpcShape() byte { return shapePoint }

func (p pointShape) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendSvarint(buf, p.X)
	return wire.AppendSvarint(buf, p.Y), nil
}

func (p *pointShape) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapePoint {
		return fmt.Errorf("pointShape: unexpected shape %d", shape)
	}
	x, rest, ok := wire.ConsumeSvarint(data)
	if !ok {
		return fmt.Errorf("pointShape: truncated x")
	}
	y, rest, ok := wire.ConsumeSvarint(rest)
	if !ok || len(rest) != 0 {
		return fmt.Errorf("pointShape: truncated y")
	}
	p.X, p.Y = x, y
	pointFastDecodes.Add(1)
	return nil
}

func TestSplitMethodLongestPrefix(t *testing.T) {
	for _, tc := range []struct {
		method string
		idx    byte
		suffix string
	}{
		{"repl.ship.s0", 1, "s0"},
		{"repl.snapshot.s0", 2, "s0"},
		{"registrar.lookup", 4, ""},
		{"registrar.register", 5, "register"}, // registrar.lookup is longer but doesn't match
		{"accessor.getReadings.Neem", 8, "Neem"},
		{"totally.unknown", 0, "totally.unknown"},
		{"", 0, ""},
	} {
		idx, suffix := splitMethod(tc.method)
		if idx != tc.idx || suffix != tc.suffix {
			t.Errorf("splitMethod(%q) = %d, %q; want %d, %q", tc.method, idx, suffix, tc.idx, tc.suffix)
		}
		// Reassembly must invert the split.
		full, ok := appendMethod(nil, idx, []byte(suffix))
		if !ok || string(full) != tc.method {
			t.Errorf("appendMethod(%d, %q) = %q, %v", idx, suffix, full, ok)
		}
	}
	if _, ok := appendMethod(nil, byte(len(methodPrefixes)), nil); ok {
		t.Fatal("appendMethod accepted an out-of-range prefix index")
	}
}

// TestRequestFrameRoundTrip drives one request through the full encode
// path (beginFrame → appendRequest → finishFrame) and back through the
// wire-read path (readFrameBody → decodeRequest).
func TestRequestFrameRoundTrip(t *testing.T) {
	b := beginFrame(nil)
	b, err := appendRequest(b, 42, "repl.ship.s0", "secret", pointShape{X: -7, Y: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameRequest)

	r := bufio.NewReader(bytes.NewReader(frame))
	tag, _ := r.ReadByte()
	if tag != frameRequest {
		t.Fatalf("tag = %#x", tag)
	}
	var body []byte
	if err := readFrameBody(r, &body); err != nil {
		t.Fatal(err)
	}
	req, _, ok := decodeRequest(body, nil)
	if !ok {
		t.Fatal("decodeRequest rejected a valid frame")
	}
	if req.id != 42 || string(req.method) != "repl.ship.s0" || string(req.auth) != "secret" {
		t.Fatalf("req = %+v", req)
	}
	var p pointShape
	if err := p.UnmarshalSrpc(req.payload.shape, req.payload.data); err != nil {
		t.Fatal(err)
	}
	if p.X != -7 || p.Y != 1<<60 {
		t.Fatalf("payload = %+v", p)
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	// Success payload.
	b := beginFrame(nil)
	b, err := appendResponse(b, 9, "", pointShape{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameResponse)
	res, ok := decodeResponse(frame[2:]) // 1B tag + 1B length for this small frame
	if !ok || res.isErr || res.id != 9 || res.payload.shape != shapePoint {
		t.Fatalf("res = %+v, ok=%v", res, ok)
	}
	// Error response.
	b = beginFrame(nil)
	b, err = appendResponse(b, 10, "boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	frame = finishFrame(b, frameResponse)
	res, ok = decodeResponse(frame[2:])
	if !ok || !res.isErr || res.id != 10 || string(res.errMsg) != "boom" {
		t.Fatalf("error res = %+v, ok=%v", res, ok)
	}
}

// TestDecodeRequestMalformed feeds decodeRequest systematically truncated
// bodies: every prefix of a valid body must be cleanly rejected (the
// frame-length byte count makes most prefixes invalid bodies).
func TestDecodeRequestTruncations(t *testing.T) {
	b := beginFrame(nil)
	b, err := appendRequest(b, 7, "registrar.lookup", "tok", json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameRequest)
	body := frame[2:] // tag + 1B uvarint length
	if _, _, ok := decodeRequest(body, nil); !ok {
		t.Fatal("full body must decode")
	}
	for i := 0; i < 5 && i < len(body); i++ {
		if _, _, ok := decodeRequest(body[:i], nil); ok {
			t.Fatalf("truncated body (%d bytes) decoded", i)
		}
	}
}

func TestReadFrameBodyRejectsOversize(t *testing.T) {
	var in []byte
	in = wire.AppendUvarint(in, MaxFrame+1)
	var buf []byte
	err := readFrameBody(bufio.NewReader(bytes.NewReader(in)), &buf)
	if err != errFrameTooBig {
		t.Fatalf("err = %v, want errFrameTooBig", err)
	}
}

// TestReadFrameBodyBoundedByReceived proves a hostile length prefix can't
// force a large allocation: the claimed length is just under MaxFrame but
// the peer sends only a few bytes, so the grown buffer must track what
// actually arrived, not the claim.
func TestReadFrameBodyBoundedByReceived(t *testing.T) {
	var in []byte
	in = wire.AppendUvarint(in, MaxFrame-1)
	in = append(in, []byte("only a few bytes")...)
	var buf []byte
	err := readFrameBody(bufio.NewReader(bytes.NewReader(in)), &buf)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if cap(buf) > 128<<10 {
		t.Fatalf("hostile prefix allocated %d bytes for a 16-byte body", cap(buf))
	}
}

// TestBinaryNegotiationAndFastPath is the end-to-end fast-path round
// trip: the first call on a new connection engages the hot-shape
// encoders on both request and response payloads.
func TestBinaryNegotiationAndFastPath(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "swap", func(p pointShape) (any, error) {
		return pointShape{X: p.Y, Y: p.X}, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The fast-path counter must move by exactly two per call: request
	// decode at the server, response decode at the client.
	before := pointFastDecodes.Load()
	var out pointShape
	big := int64(1)<<60 + 3
	if err := c.Call("swap", pointShape{X: big, Y: -big}, &out); err != nil {
		t.Fatal(err)
	}
	if out.X != -big || out.Y != big {
		t.Fatalf("out = %+v", out)
	}
	if got := pointFastDecodes.Load() - before; got != 2 {
		t.Fatalf("fast-path decodes = %d, want 2 (request + response)", got)
	}
}

// TestBinaryJSONFallbackInsideFrames: types without hot-shape encoders
// ride as JSON payloads inside binary frames.
func TestBinaryJSONFallbackInsideFrames(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	var out float64
	if err := c.Call("add", addParams{A: 20, B: 22}, &out); err != nil || out != 42 {
		t.Fatalf("fallback call = %v, %v", out, err)
	}
	// Remote errors survive the binary framing too.
	if err := c.Call("fail", struct{}{}, nil); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

// TestServerDropsOversizeFrame: every read is bounded. A length prefix
// past MaxFrame, or a first byte that is not a frame tag, drops the
// connection at once — a JSON line is answered by a close, and an
// unterminated one cannot make the server buffer it — while other
// connections are unaffected.
func TestServerDropsOversizeFrame(t *testing.T) {
	s := newServer(t)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"oversize-length", append([]byte{frameRequest}, wire.AppendUvarint(nil, MaxFrame+1)...)},
		{"json-line", []byte(`{"id":1,"method":"add","params":{"a":2,"b":3}}` + "\n")},
		{"unterminated-json", append([]byte{'{'}, bytes.Repeat([]byte{' '}, 256<<10)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			// The server may close before the whole input is written, so
			// the write runs aside and its error is expected.
			go func() { _, _ = raw.Write(tc.in) }()
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			// Closed means EOF, or a reset when input was left unread;
			// only the deadline shows a server still holding the conn.
			n, err := io.Copy(io.Discard, raw)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("server kept the connection open (%d bytes back)", n)
			}
			if n != 0 {
				t.Fatalf("server answered %d bytes before dropping the connection", n)
			}
			// A well-behaved client still works.
			c := dial(t, s)
			var out float64
			if err := c.Call("add", addParams{A: 2, B: 3}, &out); err != nil || out != 5 {
				t.Fatalf("server wedged after %s: %v %v", tc.name, out, err)
			}
		})
	}
}

// TestClientDropsUnknownFrame: a server whose reply does not open with a
// frame tag fails the pending call with ErrConnClosed at once, instead of
// leaving it to wait out its deadline.
func TestClientDropsUnknownFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Wait for the request, answer with a JSON line, then hold the
		// connection open: only the bad tag may end the call.
		var b [1]byte
		if _, err := conn.Read(b[:]); err != nil {
			return
		}
		_, _ = conn.Write([]byte(`{"id":1,"result":5}` + "\n"))
		_, _ = io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var out float64
	err = c.Call("add", addParams{A: 2, B: 3}, &out)
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("call failed only after %v", d)
	}
}

// TestMixedTrafficOnBinaryConnection: a hand-built request frame sent as
// the very first bytes of a raw connection, with no handshake before it,
// gets a shape-0 answer framed the same way.
func TestMixedTrafficOnBinaryConnection(t *testing.T) {
	s := newServer(t)
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	b := beginFrame(nil)
	b, err = appendRequest(b, 1, "add", "", json.RawMessage(`{"a":4,"b":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(finishFrame(b, frameRequest)); err != nil {
		t.Fatal(err)
	}

	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(raw)
	var body []byte
	tag, err := readFrame(r, &body, isClientFrame)
	if err != nil || tag != frameResponse {
		t.Fatalf("tag = %#x, %v", tag, err)
	}
	res, ok := decodeResponse(body)
	if !ok || res.isErr || res.id != 1 || res.payload.shape != ShapeJSON {
		t.Fatalf("res = %+v, ok=%v", res, ok)
	}
	if got := string(res.payload.data); got != "9" {
		t.Fatalf("payload = %q", got)
	}
}

// TestBinaryAuth: token auth over binary frames, wrong and right.
func TestBinaryAuth(t *testing.T) {
	s := NewServer()
	s.SetToken("farm-secret")
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ping", nil, nil); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("unauthenticated call: err = %v", err)
	}
	c.SetToken("farm-secret")
	var out string
	if err := c.Call("ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("authenticated binary call = %q, %v", out, err)
	}
}

// TestFinishFrameLengths: the backward length stamp must be exact for
// bodies around every uvarint width boundary the headroom covers.
func TestFinishFrameLengths(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		b := beginFrame(nil)
		for len(b)-frameHeadroom < n {
			b = append(b, 0xAB)
		}
		frame := finishFrame(b, frameRequest)
		r := bufio.NewReader(bytes.NewReader(frame))
		tag, _ := r.ReadByte()
		if tag != frameRequest {
			t.Fatalf("n=%d: tag = %#x", n, tag)
		}
		var body []byte
		if err := readFrameBody(r, &body); err != nil || len(body) != n {
			t.Fatalf("n=%d: body len %d, err %v", n, len(body), err)
		}
	}
}
