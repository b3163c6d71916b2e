package stream

import (
	"encoding/binary"
	"fmt"
	"math"

	"csoutlier"
	"csoutlier/internal/frame"
)

// The wire format. Every frame, in either direction, is
// internal/frame's prelude (version, kind, uv body length) and a body,
// laid out per kind:
//
//	hello 1         str node | uv epoch | identity: the rest of the body,
//	                none or csoutlier.IdentityLen bytes
//	bye 3           (empty)
//	delta 2         uv window | uv seq | uv folds |
//	                payload: the rest of the body, csoutlier's delta codec
//	ack 5           u8 status (low bits: index into ackStatuses; bit 7: Applied) |
//	                uv window | uv aggEpoch | uv stable | err: the rest of the body
//
// uv is an unsigned varint, no longer than its value needs; str a uv
// length then that many bytes. A connection speaks for the (node, epoch)
// of its last hello, once the aggregator admits that hello: a delta or
// bye names neither, the aggregator takes both from the connection. A
// peer that sends anything else — another version, an unknown kind (the
// retired query kinds 4 and 6 among them), a body over the kind's limit,
// a truncated or trailing field, a hello identity of any other length,
// a delta or bye on a connection whose last hello was refused or that
// sent none — is disconnected; there is no negotiation. So every request
// that parses re-encodes to its own bytes.
//
// The identity is the 25 bytes a csoutlier sketch payload opens with
// ("CSK2", M, N, seed, ensemble, depth): the consensus, fixed for a
// deployment, named once per connection. A Sender always names its
// owner's; the aggregator acks a hello that names another with Err,
// naming both, and the node does not join. A bare Client names none.
//
// A delta's payload is opaque here. csoutlier gives it one of two
// layouts — the M measurements behind the identity and a CRC ("CSK2"),
// or the observations themselves (tag 'P', a uv count, per pair a uv
// tag of key index and form, then the value as a zigzag varint when it
// is an integer, else as an f64, and a CRC over the receiver's identity
// and those bytes) — and a node ships whichever is smaller
// (csoutlier.Updater.DrainEncoded): a flush never costs more bytes than
// the data it carries, and never more than the sketch. The bytes saved
// are paid for in CPU one hop up: whoever folds a pairs payload
// measures it (O(M) per pair), work the leaf no longer does. Each
// prelude version marks a pairs layout: 2 "CSKP" (f64 values), 3 "CSKV"
// (varint values behind the identity), 4 and 5 the tag. A peer of an
// earlier one is disconnected at its first frame, not acked "bad sketch
// magic" frame after frame.

// Frame-size accounting, exported for harnesses that budget bytes per
// connection (internal/simtest's chaos proxies).
const (
	// maxNodeLen bounds a node name on the wire.
	maxNodeLen = 256
	// MinDeltaOverhead and MaxDeltaOverhead bound what one delta exchange
	// — the frame and its Err-free ack — puts on the wire on top of the
	// delta payload. A hello exchange, identity included, fits in
	// MaxDeltaOverhead plus the node name, and a bye exchange in
	// MaxDeltaOverhead.
	MinDeltaOverhead = 2*frame.MinOverhead + 3 + (1 + 3)
	MaxDeltaOverhead = 2*frame.MaxOverhead + maxHelloHeader + (1 + 3*binary.MaxVarintLen64)
	// MinDeltaPayload is the smallest payload a flush carries: one
	// observation as a pair. The largest is csoutlier.EncodedSketchLen(M)
	// — pairs are only ever sent when smaller.
	MinDeltaPayload = csoutlier.MinEncodedPairsLen
)

const (
	// maxHelloHeader is a hello's body but the name's bytes: str's
	// length, uv epoch and the identity. It bounds a delta's three uvs
	// too (38 ≥ 30 bytes).
	maxHelloHeader = binary.MaxVarintLen16 + binary.MaxVarintLen64 + csoutlier.IdentityLen
	maxDeltaHeader = 3 * binary.MaxVarintLen64 // uv window | uv seq | uv folds
	maxAckErr      = 1024                      // longer rejection texts are cut
	maxAckBody     = 1 + 3*binary.MaxVarintLen64 + maxAckErr
	ackApplied     = 0x80
)

// ackStatuses maps Ack.Status to its wire code (the index) and back.
var ackStatuses = [...]string{"", statusApplied, StatusDuplicate, statusDroppedOld, statusHello, statusBye}

// errMalformed marks input no conforming peer produces.
var errMalformed = frame.ErrMalformed

// frameLimits is the largest body accepted per kind; 0 = the kind is
// not accepted at all.
type frameLimits [replyAck + 1]int

// requestLimits are the bodies an aggregator of m-measurement sketches
// accepts: the length is capped from the consensus before any of the
// body is read. A bye carries nothing; its cap only has to be non-zero
// for the kind to be accepted, and the parser refuses the byte.
func requestLimits(m int) frameLimits {
	return frameLimits{
		pushHello: maxHelloHeader + maxNodeLen,
		pushBye:   1,
		pushDelta: maxDeltaHeader + csoutlier.EncodedSketchLen(m),
	}
}

// replyLimits is the one body a client accepts: an ack.
var replyLimits = frameLimits{replyAck: maxAckBody}

// appendRequest encodes req as one frame into buf's storage. Only a
// hello names req.Node and req.Epoch.
func appendRequest(buf []byte, req *pushRequest) []byte {
	buf = frame.Begin(buf, uint8(req.Kind))
	switch req.Kind {
	case pushHello:
		buf = frame.AppendString(buf, req.Node)
		buf = binary.AppendUvarint(buf, req.Epoch)
		buf = append(buf, req.ID...)
	case pushDelta:
		buf = binary.AppendUvarint(buf, req.Window)
		buf = binary.AppendUvarint(buf, req.Seq)
		buf = binary.AppendUvarint(buf, uint64(req.Folds))
		buf = append(buf, req.Payload...)
	}
	return frame.End(buf)
}

// parseRequest decodes a request body into req, overwriting every
// field: a delta or bye leaves req.Node and req.Epoch empty, for the
// caller to fill from the connection's hello. req.Payload and req.ID
// alias body.
func parseRequest(kind pushKind, body []byte, req *pushRequest) error {
	r := frame.Cursor{B: body}
	*req = pushRequest{Kind: kind}
	switch kind {
	case pushHello:
		name := r.Str()
		if len(name) > maxNodeLen {
			return fmt.Errorf("%w: node name of %d bytes, limit %d", errMalformed, len(name), maxNodeLen)
		}
		req.Node = string(name)
		req.Epoch = r.Uvarint()
		if req.ID = r.Take(len(r.B)); len(req.ID) != 0 && len(req.ID) != csoutlier.IdentityLen {
			return fmt.Errorf("%w: hello identity of %d bytes", errMalformed, len(req.ID))
		}
	case pushDelta:
		req.Window = r.Uvarint()
		req.Seq = r.Uvarint()
		folds := r.Uvarint()
		if folds > math.MaxUint32 {
			return fmt.Errorf("%w: folds %d", errMalformed, folds)
		}
		req.Folds = uint32(folds)
		req.Payload = r.Take(len(r.B))
	}
	if r.Err != nil || len(r.B) != 0 {
		return fmt.Errorf("%w: kind %d body does not parse", errMalformed, kind)
	}
	return nil
}

// appendAck encodes ack as one frame into buf's storage.
func appendAck(buf []byte, ack *Ack) []byte {
	buf = frame.Begin(buf, uint8(replyAck))
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
