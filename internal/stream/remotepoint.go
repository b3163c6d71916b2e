package stream

import (
	"context"
	"errors"
	"sync"
	"time"

	"csoutlier"
)

// RemotePoint answers point queries over the push protocol's query RPC
// (a tier.PointQuerier for a shard root in another process): a
// lazily-dialed connection to a shard root's push listener, with one
// transparent redial per query (a root restart between polls is
// routine; a second consecutive transport failure surfaces).
type RemotePoint struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex
	c  *Client
}

// NewRemotePoint builds a remote point-querier for a push listener
// address. timeout bounds each dial and each query exchange.
func NewRemotePoint(addr string, timeout time.Duration) *RemotePoint {
	return &RemotePoint{addr: addr, timeout: timeout}
}

// PointQueryMulti sends the watch list over the wire.
func (p *RemotePoint) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if p.c == nil {
			ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
			c, err := DialClient(ctx, p.addr, p.timeout)
			cancel()
			if err != nil {
				return nil, err
			}
			p.c = c
		}
		answers, err := p.c.PointQuery(fromAge, toAge, keys, threshold)
		if err != nil {
			var rej *QueryRejectedError
			if errors.As(err, &rej) {
				return nil, err // healthy connection, query-level rejection
			}
			p.c.Close()
			p.c = nil
			if attempt == 0 {
				continue // one transparent redial
			}
			return nil, err
		}
		return answers, nil
	}
}

// Close releases the connection, if any.
func (p *RemotePoint) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		err := p.c.Close()
		p.c = nil
		return err
	}
	return nil
}
