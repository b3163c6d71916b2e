package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
)

// Client is the low-level delta-protocol client: one TCP connection,
// one strictly serialized request/response exchange at a time, no
// retries and no state. Sender builds the production retry/redial loop
// on top of it; tests use it directly to inject duplicate, reordered
// and stale frames the aggregator must tolerate.
type Client struct {
	conn    net.Conn
	fr      frame.Reader
	limits  frameLimits // reply body caps; replyQuery's moves with each query
	wbuf    []byte      // the outgoing frame, reused across exchanges
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
	c.limits[replyAck] = maxAckBody
	c.fr = frame.Reader{R: conn, Limits: c.limits[:], Buf: make([]byte, FrameOverhead+maxAckBody)} // any ack in one Read
	return c, nil
}

// Hello announces (node, epoch) and returns the aggregator's current
// window — sent on every connect and as an idle heartbeat.
func (c *Client) Hello(node string, epoch uint64) (Ack, error) {
	return c.exchange(&pushRequest{Kind: pushHello, Node: node, Epoch: epoch})
}

// PushDelta ships one window-tagged sketch delta. payload must be the
// csoutlier binary codec bytes of the delta, in either of its
// encodings; folds is how many
// local captures were merged into it (0 and 1 both mean a plain frame,
// >1 marks a shed/merged frame). A transport error poisons the
// connection (the client must be re-dialed); an Ack with a non-empty
// Err is a frame-level rejection on a healthy connection.
func (c *Client) PushDelta(node string, epoch, window, seq uint64, folds uint32, payload []byte) (Ack, error) {
	return c.exchange(&pushRequest{
		Kind: pushDelta, Node: node, Epoch: epoch,
		Window: window, Seq: seq, Folds: folds, Payload: payload,
	})
}

// Bye announces a graceful leave for (node, epoch). The aggregator
// retires the membership; the ack carries the final window view.
func (c *Client) Bye(node string, epoch uint64) (Ack, error) {
	return c.exchange(&pushRequest{Kind: pushBye, Node: node, Epoch: epoch})
}

// PointQuery answers a watch list of keys over a window-age span — the
// wire form of Aggregator.PointQueryMulti, multiplexed on the same push
// connection. Answers come back in request order. A transport error
// poisons the connection; a returned error with a healthy connection is
// a query-level rejection (unknown key, span out of range,
// non-count-sketch backend).
func (c *Client) PointQuery(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	c.limits[replyQuery] = queryReplyLimit(len(keys))
	body, err := c.roundTrip(&pushRequest{
		Kind:    pushPointQuery,
		FromAge: fromAge, ToAge: toAge,
		Keys: keys, Threshold: threshold,
	}, replyQuery)
	if err != nil {
		return nil, err
	}
	reply, err := parseQueryReply(body)
	if err != nil {
		return nil, fmt.Errorf("stream: receive: %w", err)
	}
	if reply.Err != "" {
		return nil, &QueryRejectedError{Msg: reply.Err}
	}
	return reply.Answers, nil
}

// QueryRejectedError is a query-level rejection of a point-query RPC:
// the connection is healthy and a retry of the same request would be
// rejected again (unknown key, span out of range, non-count-sketch
// backend). Callers distinguish it from transport errors, which poison
// the connection and are worth one redial.
type QueryRejectedError struct{ Msg string }

func (e *QueryRejectedError) Error() string { return e.Msg }

// exchange runs one request/ack round-trip.
func (c *Client) exchange(req *pushRequest) (Ack, error) {
	body, err := c.roundTrip(req, replyAck)
	if err != nil {
		return Ack{}, err
	}
	ack, err := parseAck(body)
	if err != nil {
		return Ack{}, fmt.Errorf("stream: receive: %w", err)
	}
	return ack, nil
}

// roundTrip writes req as one frame with one Write and reads the reply
// frame, which must be of kind want, under the deadline. The returned
// body aliases the client's read buffer.
func (c *Client) roundTrip(req *pushRequest, want pushKind) ([]byte, error) {
	if len(req.Node) > MaxNodeLen {
		return nil, fmt.Errorf("stream: node name is %d bytes, the wire carries at most %d", len(req.Node), MaxNodeLen)
	}
	c.wbuf = appendRequest(c.wbuf, req)
	if req.Kind == pushPointQuery && len(c.wbuf)-FrameOverhead > MaxQueryBytes {
		return nil, &QueryRejectedError{Msg: fmt.Sprintf("stream: point query of %d keys encodes to %d bytes, limit %d: split the watch list",
			len(req.Keys), len(c.wbuf)-FrameOverhead, MaxQueryBytes)}
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, fmt.Errorf("stream: send: %w", err)
	}
	kind, body, err := c.fr.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("stream: aggregator closed connection")
		}
		return nil, fmt.Errorf("stream: receive: %w", err)
	}
	if pushKind(kind) != want {
		return nil, fmt.Errorf("stream: receive: reply of kind %d, want %d", kind, want)
	}
	return body, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }
