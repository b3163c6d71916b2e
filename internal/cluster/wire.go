package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"csoutlier/internal/frame"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
)

// The body codec of the pull protocol; transport.go's protocol comment
// has the byte layout.

// reqKind is a frame kind. The numbers start past the push protocol's
// (internal/stream, 1–6) so a peer of one protocol that reaches a port of
// the other is refused at its first prelude.
type reqKind uint8

const (
	reqID reqKind = iota + 0x10
	reqSketch
	reqFull
	reqSample
	reqOutliers
	kindReply
)

// Reply status bytes.
const (
	replyErr = 0
	replyOK  = 1
)

// Body caps, known before a body is read.
const (
	// MaxRequestBytes bounds a request body. Only a SampleValues index
	// list can come near it (about 350k six-digit positions); a longer
	// list is refused by the client, to be split by the caller.
	MaxRequestBytes = 1 << 20
	// MaxVectorBytes bounds a reply body: a FullVector reply of 2²⁵ keys.
	// Replies to the other requests are capped lower, from what was asked.
	MaxVectorBytes = 1 << 28
	// maxReplyText bounds a node name or an error text in a reply.
	maxReplyText = 1024

	maxSpecBody = 3*binary.MaxVarintLen64 + 8 + 1 // uv M | uv N | u64 seed | u8 kind | uv D
	maxKVLen    = binary.MaxVarintLen64 + 8       // uv index | f64 value
)

// requestLimits is the largest body a node accepts per request kind.
// ID and FullVector requests carry nothing; their cap only has to be
// non-zero for the kind to be accepted, and the parser refuses the byte.
var requestLimits = [kindReply]int{
	reqID:       1,
	reqSketch:   maxSpecBody,
	reqFull:     1,
	reqSample:   MaxRequestBytes,
	reqOutliers: 8 + binary.MaxVarintLen64,
}

// replyLimit is the largest reply body the client accepts to req: what
// it asked for, or an error text.
func replyLimit(req *request) int {
	n := 0
	switch req.Kind {
	case reqSketch:
		n = 8 * req.Spec.M
	case reqFull:
		n = MaxVectorBytes
	case reqSample:
		n = 8 * len(req.Indices)
	case reqOutliers:
		n = min(req.Count, MaxVectorBytes/maxKVLen) * maxKVLen
	}
	return 1 + min(max(n, maxReplyText), MaxVectorBytes)
}

type request struct {
	Kind    reqKind
	Spec    sensing.Spec
	Indices []int
	Mode    float64
	Count   int
}

type response struct {
	Err  string
	Name string
	Vec  []float64
	KVs  []outlier.KV
}

// appendRequest encodes req as one frame into buf's storage. Negative
// indices and counts have no wire form; the caller has refused them.
func appendRequest(buf []byte, req *request) []byte {
	buf = frame.Begin(buf, uint8(req.Kind))
	switch req.Kind {
	case reqSketch:
		buf = binary.AppendUvarint(buf, uint64(req.Spec.M))
		buf = binary.AppendUvarint(buf, uint64(req.Spec.N))
		buf = binary.LittleEndian.AppendUint64(buf, req.Spec.Seed)
		buf = append(buf, byte(req.Spec.Kind))
		buf = binary.AppendUvarint(buf, uint64(req.Spec.D))
	case reqSample:
		buf = binary.AppendUvarint(buf, uint64(len(req.Indices)))
		for _, j := range req.Indices {
			buf = binary.AppendUvarint(buf, uint64(j))
		}
	case reqOutliers:
		buf = frame.AppendF64(buf, req.Mode)
		buf = binary.AppendUvarint(buf, uint64(req.Count))
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

// parseRequest decodes a request body into req, overwriting every field
// and reusing the index list's storage. Nothing is sized from a decoded
// number except the index list, from a count the body's own length
// bounds; the spec is the handler's to validate.
func parseRequest(kind reqKind, body []byte, req *request) error {
	r := frame.Cursor{B: body}
	idx := req.Indices[:0]
	*req = request{Kind: kind}
	switch kind {
	case reqSketch:
		req.Spec.M = cursorInt(&r)
		req.Spec.N = cursorInt(&r)
		req.Spec.Seed = r.U64()
		req.Spec.Kind = sensing.Kind(r.U8())
		req.Spec.D = cursorInt(&r)
	case reqSample:
		n := r.Uvarint()
		if n > uint64(len(r.B)) { // every index is at least one byte
			return fmt.Errorf("%w: %d sample indices in %d bytes", frame.ErrMalformed, n, len(r.B))
		}
		for i := uint64(0); i < n; i++ {
			idx = append(idx, cursorInt(&r))
		}
		req.Indices = idx
	case reqOutliers:
		req.Mode = r.F64()
		req.Count = cursorInt(&r)
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
	case 8*len(resp.Vec) > MaxVectorBytes || maxKVLen*len(resp.KVs) > MaxVectorBytes:
		msg = fmt.Sprintf("cluster: reply of %d values, the wire carries at most %d bytes", len(resp.Vec)+len(resp.KVs), MaxVectorBytes)
	}
	if msg != "" {
		return frame.End(append(append(buf, replyErr), msg[:min(len(msg), maxReplyText)]...))
	}
	buf = append(buf, replyOK)
	switch kind {
	case reqID:
		buf = append(buf, resp.Name...)
	case reqSketch, reqFull, reqSample:
		buf = slices.Grow(buf, 8*len(resp.Vec))
		for _, v := range resp.Vec {
			buf = frame.AppendF64(buf, v)
		}
	case reqOutliers:
		for _, kv := range resp.KVs {
			buf = frame.AppendF64(binary.AppendUvarint(buf, uint64(kv.Index)), kv.Value)
		}
	}
	return frame.End(buf)
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// parseReply decodes the reply body to a request of the given kind into
// resp. A vector is decoded straight into the slice the caller returns.
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
		resp.Name = string(r.B)
	case reqSketch, reqFull, reqSample:
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
	case reqOutliers:
		resp.KVs = make([]outlier.KV, 0, len(r.B)/9) // an entry is at least nine bytes
		for len(r.B) > 0 && r.Err == nil {
			kv := outlier.KV{Index: cursorInt(&r), Value: r.F64()}
			if !finite(kv.Value) {
				return fmt.Errorf("%w: outlier reply value for index %d is not finite", frame.ErrMalformed, kv.Index)
			}
			resp.KVs = append(resp.KVs, kv)
		}
		if r.Err != nil {
			return fmt.Errorf("%w: outlier reply does not parse", frame.ErrMalformed)
		}
	}
	return nil
}
