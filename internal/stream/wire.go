package stream

import (
	"encoding/binary"
	"fmt"
	"math"

	"csoutlier"
	"csoutlier/internal/frame"
)

// The wire format. Every frame, in either direction, is
// internal/frame's six-byte prelude (u32 body length, version, kind)
// and a body, laid out per kind (pushHello … replyQuery):
//
//	hello, bye   str node | uv epoch
//	delta        str node | uv epoch | uv window | uv seq | uv folds |
//	             payload: the rest of the body, csoutlier's delta codec
//	point query  sv fromAge | sv toAge | f64 threshold | uv n | n × str key
//	ack          u8 status (low bits: index into ackStatuses; bit 7: Applied) |
//	             uv window | uv aggEpoch | uv stable | err: the rest of the body
//	query reply  str err | uv n | n × (f64 value | f64 mode | u8 outlier)
//
// uv is an unsigned varint, sv a zig-zag varint, str a uv length then
// that many bytes, f64 the IEEE-754 bits little-endian. A peer that
// sends anything else — another version, an unknown kind, a body over
// the kind's limit, a truncated or trailing field — is disconnected;
// there is no negotiation.
//
// A delta's payload is opaque here. csoutlier gives it one of two
// layouts behind the same 25-byte consensus identity and CRC — the M
// measurements ("CSK2"), or the observations themselves as (uv key
// index, f64 value) pairs ("CSKP") — and a node ships whichever is
// smaller (csoutlier.Updater.DrainEncoded): a flush never costs more
// bytes than the data it carries, and never more than the sketch. The
// bytes saved are paid for in CPU one hop up: whoever folds a pairs
// payload measures it (O(M) per pair), work the leaf no longer does.
// Version 2 of the prelude marks peers that may send pairs; a version-1
// aggregator would have acked every such frame "bad sketch magic"
// instead of hanging up.

// Frame-size accounting, exported for harnesses that budget bytes per
// connection (internal/simtest's chaos proxies).
const (
	// FrameOverhead is the prelude in front of every frame body.
	FrameOverhead = frame.Overhead
	// MaxNodeLen bounds a node name on the wire.
	MaxNodeLen = 256
	// MaxQueryBytes bounds a point-query frame body: the span and
	// threshold, then every watched key with its length prefix (32768
	// keys of 30 bytes, say). Longer watch lists are split by the caller.
	MaxQueryBytes = 1 << 20
	// MinDeltaOverhead and MaxDeltaOverhead bound what one delta exchange
	// — the frame and its Err-free ack — puts on the wire on top of the
	// node name and the delta payload. A hello or bye exchange fits in
	// MaxDeltaOverhead plus the name.
	MinDeltaOverhead = 2*FrameOverhead + (1 + 4) + (1 + 3)
	MaxDeltaOverhead = 2*FrameOverhead + (binary.MaxVarintLen16 + 4*binary.MaxVarintLen64) + (1 + 3*binary.MaxVarintLen64)
	// MinDeltaPayload is the smallest payload a flush carries: one
	// observation as a pair. The largest is csoutlier.EncodedSketchLen(M)
	// — pairs are only ever sent when smaller.
	MinDeltaPayload = csoutlier.MinEncodedPairsLen
)

const (
	maxNodeHeader  = binary.MaxVarintLen16 + MaxNodeLen + binary.MaxVarintLen64 // str node | uv epoch
	maxDeltaHeader = maxNodeHeader + 3*binary.MaxVarintLen64                    // … | window | seq | folds
	maxAckErr      = 1024                                                       // longer rejection texts are cut
	maxAckBody     = 1 + 3*binary.MaxVarintLen64 + maxAckErr
	answerLen      = 8 + 8 + 1
	ackApplied     = 0x80
)

// ackStatuses maps Ack.Status to its wire code (the index) and back.
var ackStatuses = [...]string{"", StatusApplied, StatusDuplicate, StatusDroppedOld, StatusHello, StatusBye}

// errMalformed marks input no conforming peer produces.
var errMalformed = frame.ErrMalformed

// frameLimits is the largest body accepted per kind; 0 = the kind is
// not accepted at all (every real body is at least two bytes).
type frameLimits [replyQuery + 1]int

// requestLimits are the bodies an aggregator of m-measurement sketches
// accepts: the length prefix is capped from the consensus before any
// of the body is read.
func requestLimits(m int) frameLimits {
	var l frameLimits
	l[pushHello] = maxNodeHeader
	l[pushBye] = maxNodeHeader
	l[pushDelta] = maxDeltaHeader + csoutlier.EncodedSketchLen(m)
	l[pushPointQuery] = MaxQueryBytes
	return l
}

// beginFrame starts a frame of the given kind in buf's storage.
func beginFrame(buf []byte, kind pushKind) []byte { return frame.Begin(buf, uint8(kind)) }

// appendRequest encodes req as one frame into buf's storage.
func appendRequest(buf []byte, req *pushRequest) []byte {
	buf = beginFrame(buf, req.Kind)
	if req.Kind == pushPointQuery {
		buf = binary.AppendVarint(buf, int64(req.FromAge))
		buf = binary.AppendVarint(buf, int64(req.ToAge))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.Threshold))
		buf = binary.AppendUvarint(buf, uint64(len(req.Keys)))
		for _, k := range req.Keys {
			buf = frame.AppendString(buf, k)
		}
		return frame.End(buf)
	}
	buf = frame.AppendString(buf, req.Node)
	buf = binary.AppendUvarint(buf, req.Epoch)
	if req.Kind == pushDelta {
		buf = binary.AppendUvarint(buf, req.Window)
		buf = binary.AppendUvarint(buf, req.Seq)
		buf = binary.AppendUvarint(buf, uint64(req.Folds))
		buf = append(buf, req.Payload...)
	}
	return frame.End(buf)
}

// parseRequest decodes a request body into req, overwriting every
// field. req.Payload aliases body. The node name reuses req's previous
// one when unchanged — a connection speaks for one node, so the steady
// state allocates nothing.
func parseRequest(kind pushKind, body []byte, req *pushRequest) error {
	r := frame.Cursor{B: body}
	node := req.Node
	*req = pushRequest{Kind: kind}
	if kind == pushPointQuery {
		req.FromAge = int(r.Varint())
		req.ToAge = int(r.Varint())
		req.Threshold = r.F64()
		n := r.Uvarint()
		if n > uint64(len(r.B)) { // every key is at least its length byte
			return fmt.Errorf("%w: %d keys in %d bytes", errMalformed, n, len(r.B))
		}
		req.Keys = make([]string, n)
		for i := range req.Keys {
			req.Keys[i] = string(r.Str())
		}
	} else {
		name := r.Str()
		if len(name) > MaxNodeLen {
			return fmt.Errorf("%w: node name of %d bytes, limit %d", errMalformed, len(name), MaxNodeLen)
		}
		if string(name) != node {
			node = string(name)
		}
		req.Node = node
		req.Epoch = r.Uvarint()
		if kind == pushDelta {
			req.Window = r.Uvarint()
			req.Seq = r.Uvarint()
			folds := r.Uvarint()
			if folds > math.MaxUint32 {
				return fmt.Errorf("%w: folds %d", errMalformed, folds)
			}
			req.Folds = uint32(folds)
			req.Payload = r.Take(len(r.B))
		}
	}
	if r.Err != nil || len(r.B) != 0 {
		return fmt.Errorf("%w: kind %d body does not parse", errMalformed, kind)
	}
	return nil
}

// appendAck encodes ack as one frame into buf's storage.
func appendAck(buf []byte, ack *Ack) []byte {
	buf = beginFrame(buf, replyAck)
	var status byte
	for i, s := range ackStatuses {
		if s == ack.Status {
			status = byte(i)
		}
	}
	if ack.Applied {
		status |= ackApplied
	}
	buf = append(buf, status)
	buf = binary.AppendUvarint(buf, ack.Window)
	buf = binary.AppendUvarint(buf, ack.AggEpoch)
	buf = binary.AppendUvarint(buf, ack.Stable)
	msg := ack.Err
	if len(msg) > maxAckErr {
		msg = msg[:maxAckErr]
	}
	return frame.End(append(buf, msg...))
}

func parseAck(body []byte) (Ack, error) {
	r := frame.Cursor{B: body}
	status := r.U8()
	if r.Err != nil || int(status&^ackApplied) >= len(ackStatuses) {
		return Ack{}, fmt.Errorf("%w: ack status", errMalformed)
	}
	ack := Ack{
		Status:   ackStatuses[status&^ackApplied],
		Applied:  status&ackApplied != 0,
		Window:   r.Uvarint(),
		AggEpoch: r.Uvarint(),
		Stable:   r.Uvarint(),
	}
	if r.Err != nil {
		return Ack{}, fmt.Errorf("%w: ack does not parse", errMalformed)
	}
	ack.Err = string(r.B)
	return ack, nil
}

// appendQueryReply encodes reply as one frame into buf's storage.
// Deviation is not sent: it is Value − Mode by definition, and the
// reader recomputes it.
func appendQueryReply(buf []byte, reply *QueryReply) []byte {
	buf = beginFrame(buf, replyQuery)
	msg := reply.Err
	if len(msg) > maxAckErr {
		msg = msg[:maxAckErr]
	}
	buf = frame.AppendString(buf, msg)
	buf = binary.AppendUvarint(buf, uint64(len(reply.Answers)))
	for _, a := range reply.Answers {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Value))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Mode))
		var outlier byte
		if a.Outlier {
			outlier = 1
		}
		buf = append(buf, outlier)
	}
	return frame.End(buf)
}

func parseQueryReply(body []byte) (QueryReply, error) {
	r := frame.Cursor{B: body}
	reply := QueryReply{Err: string(r.Str())}
	n := r.Uvarint()
	if r.Err != nil || n > uint64(len(r.B)) || n*answerLen != uint64(len(r.B)) {
		return QueryReply{}, fmt.Errorf("%w: query reply does not parse", errMalformed)
	}
	if n > 0 {
		reply.Answers = make([]csoutlier.PointAnswer, n)
	}
	for i := range reply.Answers {
		a := &reply.Answers[i]
		a.Value, a.Mode = r.F64(), r.F64()
		a.Deviation = a.Value - a.Mode
		a.Outlier = r.U8() != 0
	}
	return reply, nil
}

// queryReplyLimit is the largest reply body to a query for n keys.
func queryReplyLimit(n int) int {
	return binary.MaxVarintLen16 + maxAckErr + binary.MaxVarintLen64 + n*answerLen
}
