package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"csoutlier/internal/frame"
)

// ChaosServer speaks the wire protocol of Serve but misbehaves on sketch
// requests on demand — the wedged, crashed and byzantine data centers the
// client hardening exists for. ID requests are always answered, so
// dialing succeeds and the failure surfaces mid-collection, where it is
// hardest to handle.
//
// It lives outside the test files because fault injection is
// infrastructure shared by the transport-hardening tests and the
// simulation harness (internal/simtest), which replays whole
// sketch→aggregate→recover pipelines against scheduled faults. Production
// binaries have no reason to construct one.
type ChaosServer struct {
	node NodeAPI
	addr string

	behavior  atomic.Int32
	failFirst atomic.Int32 // abruptly close the conn on this many sketch requests first

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{} // closed on Stop; releases hung responses
}

// Behavior selects how a ChaosServer treats sketch requests. The zero
// Behavior answers normally.
type Behavior int32

// The failure modes a chaos node can exhibit on sketch requests.
const (
	// BehaveHang never answers and holds the connection open — a wedged
	// process or a black-holed network path.
	BehaveHang Behavior = iota + 1
	// BehaveGarbage writes bytes that are not a protocol frame and closes
	// — a byzantine or version-skewed peer.
	BehaveGarbage
	// BehaveCrash stops the whole server (listener and every connection)
	// — the process dies, not just this exchange. Deterministic: the
	// listener is closed before the request's connection, so a retrying
	// client observes EOF then connection-refused, in that order.
	BehaveCrash
)

// StartChaos serves node on a fresh loopback listener.
func StartChaos(node NodeAPI) (*ChaosServer, error) {
	s := &ChaosServer{node: node, conns: make(map[net.Conn]struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: chaos listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.run(ln)
	return s, nil
}

// Addr returns the server's dialable address.
func (s *ChaosServer) Addr() string { return s.addr }

// SetBehavior switches the sketch-request failure mode.
func (s *ChaosServer) SetBehavior(b Behavior) { s.behavior.Store(int32(b)) }

// FailFirst makes the server abruptly close the connection on the next n
// sketch requests before its configured behavior applies — a node that is
// flaky for a bounded burst and then recovers.
func (s *ChaosServer) FailFirst(n int) { s.failFirst.Store(int32(n)) }

func (s *ChaosServer) run(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.done = make(chan struct{})
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			done := s.done
			s.mu.Unlock()
			go s.serve(conn, done)
		}
	}()
}

func (s *ChaosServer) serve(conn net.Conn, done chan struct{}) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := frame.Reader{R: conn, Limits: requestLimits[:]}
	var (
		req  request
		wbuf []byte
	)
	answer := func() bool {
		resp := handle(s.node, &req)
		wbuf = appendReply(wbuf, req.Kind, &resp)
		_, err := conn.Write(wbuf)
		return err == nil
	}
	for {
		if readRequest(&fr, &req) != nil {
			return
		}
		if req.Kind != reqSketch {
			if !answer() {
				return
			}
			continue
		}
		if s.failFirst.Load() > 0 {
			s.failFirst.Add(-1)
			return // abrupt close mid-exchange
		}
		switch Behavior(s.behavior.Load()) {
		case BehaveHang:
			<-done // wedged: never answers, holds the conn open
			return
		case BehaveGarbage:
			conn.Write(GarbageFrame())
			return
		case BehaveCrash:
			s.Stop() // synchronous: listener is gone before the client sees EOF
			return
		default:
			if !answer() {
				return
			}
		}
	}
}

// GarbageFrame returns the byte sequence a BehaveGarbage node writes in
// place of a response frame — a seed for decoder fuzz corpora.
func GarbageFrame() []byte {
	return []byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef, 0x00, 0xff}
}

// Stop kills the listener and every live connection. Safe to call twice.
func (s *ChaosServer) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	if s.done != nil {
		close(s.done)
		s.done = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
}
