package cluster

import (
	"context"
	"net"
	"sync"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

func TestServerSurvivesGarbageConnection(t *testing.T) {
	node := NewLocalNode("x", linalg.Vector{1, 2, 3})
	addr := startServer(t, node)

	// Throw junk at the server; it must drop the connection quietly.
	junk, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := junk.Write([]byte("GET / HTTP/1.1\r\n\r\n\x00\xff\x00garbage")); err != nil {
		t.Fatal(err)
	}
	junk.Close()

	// A well-formed client must still be served afterwards.
	rn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	spec := sensing.GaussianSpec(sensing.Params{M: 2, N: 3, Seed: 4})
	y, err := rn.Sketch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := node.Sketch(context.Background(), spec)
	if !bitsEqual(y, want) {
		t.Fatal("post-garbage request returned wrong data")
	}
}

func TestRemoteNodeConcurrentCalls(t *testing.T) {
	// The client serializes request/response pairs on one connection;
	// concurrent callers must not interleave frames. Each caller asks for
	// its own spec, so a reply delivered to the wrong caller shows.
	x := make(linalg.Vector, 50)
	for i := range x {
		x[i] = float64(i)
	}
	node := NewLocalNode("x", x)
	addr := startServer(t, node)
	rn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	const callers = 8
	specs := make([]sensing.Spec, callers)
	want := make([]linalg.Vector, callers)
	for w := range specs {
		specs[w] = sensing.GaussianSpec(sensing.Params{M: 4 + w%3, N: 50, Seed: uint64(w + 1)})
		m, _ := sensing.New(specs[w], 0)
		want[w] = m.Measure(x, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := rn.Sketch(context.Background(), specs[w])
				if err != nil {
					errs <- err
					return
				}
				if !bitsEqual(got, want[w]) {
					t.Errorf("interleaved response: caller %d got %v want %v", w, got, want[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeStopsOnListenerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, NewLocalNode("x", linalg.Vector{1})) }()
	ln.Close()
	if err := <-done; err == nil {
		t.Fatal("Serve returned nil after listener close")
	}
}
