package stream

import "time"

// What the package's external tests (package stream_test) reach inside.

var (
	TestSketcher = testSketcher
	ServeAgg     = serveAgg
)

// Backoff draws the wait before n's retry attempt from its jitter RNG.
func (n *Node) Backoff(attempt int) time.Duration {
	n.snd.sendMu.Lock()
	defer n.snd.sendMu.Unlock()
	return n.snd.backoff(attempt)
}
