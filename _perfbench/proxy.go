package main

import (
	"net"
	"sync"
	"sync/atomic"

	"sensorcer/internal/srpc"
)

// countingProxy is a TCP relay placed in front of one srpc server. It
// counts every byte in both directions, which is how the benchmark
// measures wire bytes without touching the transport.
type countingProxy struct {
	ln      net.Listener
	backend string
	bytes   atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startProxy(backend string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, backend: backend}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

// serveBehindProxy starts an srpc server on a loopback port and a
// counting proxy in front of it; clients dial the proxy.
func serveBehindProxy() (*srpc.Server, *countingProxy, error) {
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	px, err := startProxy(server.Addr())
	if err != nil {
		server.Close()
		return nil, nil, err
	}
	return server, px, nil
}

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, conn, up)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pipe(up, conn)
		go p.pipe(conn, up)
	}
}

func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close stops accepting, drops every relayed connection and waits for
// the relay goroutines to exit.
func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// proxies is the set of relays one deployment runs.
type proxies []*countingProxy

func (ps proxies) bytes() int64 {
	var n int64
	for _, p := range ps {
		n += p.bytes.Load()
	}
	return n
}

func (ps proxies) close() {
	for _, p := range ps {
		p.close()
	}
}
