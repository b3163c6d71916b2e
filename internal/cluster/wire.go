package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"csoutlier/internal/frame"
	"csoutlier/internal/sensing"
)

// The body codec of the pull protocol; transport.go's protocol comment
// has the byte layout.

// reqKind is a frame kind. The numbers start past the push protocol's
// (internal/stream, 1–5) so a peer of one protocol that reaches a port of
// the other is refused at its first prelude.
type reqKind uint8

const (
	reqID     reqKind = 0x10
	reqSketch reqKind = 0x11
	kindReply reqKind = 0x15
)

// Reply status bytes.
const (
	replyErr = 0
	replyOK  = 1
)

// Body caps, known before a body is read.
const (
	// MaxVectorBytes bounds a reply body: a sketch of 2²⁵ measurements.
	// The client caps a reply lower, from the M it asked for.
	MaxVectorBytes = 1 << 28
	// maxReplyText bounds a node name or an error text in a reply.
	maxReplyText = 1024

	maxSpecBody = 3*binary.MaxVarintLen64 + 8 + 1 // uv M | uv N | u64 seed | u8 kind | uv D
)

// requestLimits is the largest body a node accepts per request kind. An
// id request carries nothing; its cap only has to be non-zero for the
// kind to be accepted, and the parser refuses the byte.
var requestLimits = [kindReply]int{
	reqID:     1,
	reqSketch: maxSpecBody,
}

// replyLimit is the largest reply body the client accepts to req: what
// it asked for, or an error text.
func replyLimit(req *request) int {
	n := 0
	if req.Kind == reqSketch {
		n = 8 * req.Spec.M
	}
	return 1 + min(max(n, maxReplyText), MaxVectorBytes)
}

type request struct {
	Kind reqKind
	Spec sensing.Spec
}

type response struct {
	Err  string
	Name string
	Vec  []float64
}

// appendRequest encodes req as one frame into buf's storage.
func appendRequest(buf []byte, req *request) []byte {
	buf = frame.Begin(buf, uint8(req.Kind))
	if req.Kind == reqSketch {
		buf = binary.AppendUvarint(buf, uint64(req.Spec.M))
		buf = binary.AppendUvarint(buf, uint64(req.Spec.N))
		buf = binary.LittleEndian.AppendUint64(buf, req.Spec.Seed)
		buf = append(buf, byte(req.Spec.Kind))
		buf = binary.AppendUvarint(buf, uint64(req.Spec.D))
	}
	return frame.End(buf)
}

// cursorInt reads a uv that has to fit an int.
func cursorInt(r *frame.Cursor) int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Err = frame.ErrMalformed
		return 0
	}
	return int(v)
}

// parseRequest decodes a request body into req, overwriting every field.
// Nothing is sized from a decoded number; the spec is the handler's to
// validate.
func parseRequest(kind reqKind, body []byte, req *request) error {
	r := frame.Cursor{B: body}
	*req = request{Kind: kind}
	if kind == reqSketch {
		req.Spec.M = cursorInt(&r)
		req.Spec.N = cursorInt(&r)
		req.Spec.Seed = r.U64()
		req.Spec.Kind = sensing.Kind(r.U8())
		req.Spec.D = cursorInt(&r)
	}
	if r.Err != nil || len(r.B) != 0 {
		return fmt.Errorf("%w: request kind %d body does not parse", frame.ErrMalformed, kind)
	}
	return nil
}

// appendReply encodes the reply to a request of the given kind as one
// frame into buf's storage. A payload past the client's cap is sent as
// the error it would otherwise cause there.
func appendReply(buf []byte, kind reqKind, resp *response) []byte {
	buf = frame.Begin(buf, uint8(kindReply))
	msg := resp.Err
	switch {
	case msg != "":
	case len(resp.Name) > maxReplyText:
		msg = fmt.Sprintf("cluster: node name of %d bytes, the wire carries at most %d", len(resp.Name), maxReplyText)
	case 8*len(resp.Vec) > MaxVectorBytes:
		msg = fmt.Sprintf("cluster: reply of %d values, the wire carries at most %d bytes", len(resp.Vec), MaxVectorBytes)
	}
	if msg != "" {
		return frame.End(append(append(buf, replyErr), msg[:min(len(msg), maxReplyText)]...))
	}
	buf = append(buf, replyOK)
	switch kind {
	case reqID:
		buf = append(buf, resp.Name...)
	case reqSketch:
		buf = slices.Grow(buf, 8*len(resp.Vec))
		for _, v := range resp.Vec {
			buf = frame.AppendF64(buf, v)
		}
	}
	return frame.End(buf)
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// parseReply decodes the reply body to a request of the given kind into
// resp. A sketch is decoded straight into the slice the caller returns.
// A NaN or ±Inf value is malformed: summed into the round's aggregate it
// would make the whole answer non-finite.
func parseReply(kind reqKind, body []byte, resp *response) error {
	r := frame.Cursor{B: body}
	*resp = response{}
	switch status := r.U8(); {
	case r.Err != nil || status > replyOK:
		return fmt.Errorf("%w: reply status", frame.ErrMalformed)
	case status == replyErr:
		if resp.Err = string(r.B); resp.Err == "" {
			resp.Err = "cluster: node reported an error without a text"
		}
		return nil
	}
	switch kind {
	case reqID:
		if len(r.B) > maxReplyText {
			return fmt.Errorf("%w: node name of %d bytes", frame.ErrMalformed, len(r.B))
		}
		resp.Name = string(r.B)
	case reqSketch:
		if len(r.B)%8 != 0 {
			return fmt.Errorf("%w: vector reply of %d bytes", frame.ErrMalformed, len(r.B))
		}
		resp.Vec = make([]float64, len(r.B)/8)
		for i := range resp.Vec {
			resp.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.B[8*i:]))
			if !finite(resp.Vec[i]) {
				return fmt.Errorf("%w: vector reply value %d is not finite", frame.ErrMalformed, i)
			}
		}
	}
	return nil
}
