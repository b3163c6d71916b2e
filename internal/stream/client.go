package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"csoutlier/internal/frame"
)

// Client is the low-level delta-protocol client: one TCP connection,
// one strictly serialized request/response exchange at a time, no
// retries. Sender builds the production retry/redial loop on top of it;
// tests use it directly to inject duplicate, stale and refused frames,
// and seqs out of order, which the aggregator folds at most once. Its
// one record is the connection's wireContext: whom the connection speaks
// for, and what lets a delta or ack leave out what the other end can
// infer. Every Ack it returns has every field filled in.
type Client struct {
	conn    net.Conn
	fr      frame.Reader
	wbuf    []byte // the outgoing frame, reused across exchanges
	ctx     wireContext
	timeout time.Duration
}

// DialClient connects to an Aggregator's listener. timeout bounds each
// subsequent exchange (0 = no per-exchange deadline).
func DialClient(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, timeout: timeout}
	c.fr = frame.Reader{R: conn, Limits: replyLimits[:], Buf: make([]byte, frame.MaxOverhead+maxAckBody)} // any ack in one Read
	return c, nil
}

// Hello announces (node, epoch) and returns the aggregator's current
// window — sent on every connect and as an idle heartbeat. An admitted
// hello binds the connection to (node, epoch), a refused one unbinds
// it. A Client has no Sketcher, so it names no consensus: its deltas
// speak for themselves (a sketch payload carries the identity, a pairs
// payload's checksum covers it).
func (c *Client) Hello(node string, epoch uint64) (Ack, error) {
	return c.hello(node, epoch, nil)
}

// hello is Hello naming the consensus identity id (none when empty).
func (c *Client) hello(node string, epoch uint64, id []byte) (Ack, error) {
	if len(node) > maxNodeLen {
		return Ack{}, fmt.Errorf("stream: node name is %d bytes, the wire carries at most %d", len(node), maxNodeLen)
	}
	ack, err := c.exchange(&pushRequest{Kind: pushHello, Node: node, Epoch: epoch, ID: id})
	c.ctx.bound, c.ctx.node, c.ctx.epoch = err == nil && ack.Err == "", node, epoch
	return ack, err
}

// PushDelta ships one window-tagged sketch delta for (node, epoch),
// after a hello if the connection speaks for another or for none.
// payload must be the csoutlier binary codec bytes of the delta, in
// either of its encodings; folds is how many captures it sums (0 and 1
// both mean a plain frame, >1 marks a relay's sum of leaf deltas). A
// transport error poisons the connection (the client must be
// re-dialed); an Ack with a non-empty Err is a frame-level rejection on
// a healthy connection — of the delta, or of the hello before it.
func (c *Client) PushDelta(node string, epoch, window, seq uint64, folds uint32, payload []byte) (Ack, error) {
	return c.push(node, epoch, &pushRequest{Kind: pushDelta, Window: window, Seq: seq, Folds: folds, Payload: payload})
}

// push is PushDelta of a delta request, a relay's cut included.
func (c *Client) push(node string, epoch uint64, req *pushRequest) (Ack, error) {
	if !c.ctx.bound || c.ctx.node != node || c.ctx.epoch != epoch {
		if ack, err := c.Hello(node, epoch); err != nil || ack.Err != "" {
			return ack, err
		}
	}
	return c.exchange(req)
}

// bye announces a graceful leave for the (node, epoch) the connection
// speaks for. The aggregator retires the membership; the ack carries
// the final window view. On a connection with no admitted hello the
// aggregator takes the bye for malformed and hangs up.
func (c *Client) bye() (Ack, error) {
	return c.exchange(&pushRequest{Kind: pushBye})
}

// exchange writes req as one frame with one Write and reads the ack
// under the deadline; the reader refuses any other reply kind.
func (c *Client) exchange(req *pushRequest) (Ack, error) {
	c.wbuf = c.ctx.appendRequest(c.wbuf, req)
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return Ack{}, fmt.Errorf("stream: send: %w", err)
	}
	_, body, err := c.fr.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Ack{}, errors.New("stream: aggregator closed connection")
		}
		return Ack{}, fmt.Errorf("stream: receive: %w", err)
	}
	ack, err := c.ctx.parseAck(body)
	if err != nil {
		return Ack{}, fmt.Errorf("stream: receive: %w", err)
	}
	return ack, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }
