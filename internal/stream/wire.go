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
//	delta 2         u8 flags | uv window? | uv seq? | uv folds? |
//	                payload: the rest of the body, csoutlier's delta codec
//	ack 5           u8 status (bits 0–2: index into ackStatuses; 3, 4, 5:
//	                window, aggEpoch, stable follow; 7: Applied) |
//	                uv window? | uv aggEpoch? | uv stable? | err: the rest
//
// uv is an unsigned varint, no longer than its value needs; str a uv
// length then that many bytes. A field marked ? travels only when it
// differs from what the connection's wireContext implies, and a bit of
// the byte before it says so. A connection speaks for the (node, epoch)
// of its last hello, once the aggregator admits that hello: a delta or
// bye names neither, the aggregator takes both from the connection. A
// peer that sends anything else — another version, an unknown kind, a
// body over the kind's limit, a truncated or trailing field, an unknown
// flag bit, a flagged field equal to the value it would imply, a hello
// identity of any other length, a delta or bye on a connection whose
// last hello was refused or that sent none — is disconnected; there is
// no negotiation. So every
// frame that parses re-encodes to its own bytes under the same context.
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
// measures it (O(M) per pair), work the leaf no longer does.

// Frame-size accounting, exported for harnesses that budget bytes per
// connection (internal/simtest's chaos proxies).
const (
	// maxNodeLen bounds a node name on the wire.
	maxNodeLen = 256
	// MinDeltaOverhead and MaxDeltaOverhead bound what one delta exchange
	// — the frame and its Err-free ack — puts on the wire on top of the
	// delta payload: on a warm connection, a flags byte and a status
	// byte. A hello exchange, identity included, fits in
	// MaxDeltaOverhead plus the node name, and a bye exchange in
	// MaxDeltaOverhead.
	MinDeltaOverhead = 2*frame.MinOverhead + 1 + 1
	MaxDeltaOverhead = 2*frame.MaxOverhead + maxHelloHeader + maxAckHeader
	// MinDeltaPayload is the smallest payload a flush carries: one
	// observation as a pair. The largest is csoutlier.EncodedSketchLen(M)
	// — pairs are only ever sent when smaller.
	MinDeltaPayload = csoutlier.MinEncodedPairsLen
)

const (
	// maxHelloHeader is a hello's body but the name's bytes: str's
	// length, uv epoch and the identity. It bounds a delta's header too
	// (38 ≥ 31 bytes).
	maxHelloHeader = binary.MaxVarintLen16 + binary.MaxVarintLen64 + csoutlier.IdentityLen
	maxDeltaHeader = 1 + 3*binary.MaxVarintLen64 // u8 flags | uv window | uv seq | uv folds
	maxAckHeader   = 1 + 3*binary.MaxVarintLen64 // u8 status | uv window | uv aggEpoch | uv stable
	maxAckErr      = 1024                        // longer rejection texts are cut
	maxAckBody     = maxAckHeader + maxAckErr
)

// The delta's flags byte: which fields follow it.
const (
	deltaWindow = 1 << iota // the window is not the context's
	deltaSeq                // the seq is not the context's + 1
	deltaFolds              // the frame sums more than one capture
	deltaFlags  = deltaWindow | deltaSeq | deltaFolds
)

// The ack's status byte: the status index in the low three bits, which
// fields follow it, and Applied.
const (
	ackStatus   = 0x07
	ackWindow   = 0x08 // the window is not the context's
	ackAggEpoch = 0x10 // the aggEpoch is not the context's
	ackStable   = 0x20 // stable is not the seq just acked
	ackApplied  = 0x80
	ackFlags    = ackStatus | ackWindow | ackAggEpoch | ackStable | ackApplied
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

// wireContext is what both ends of one push connection know without
// being told: whom the connection speaks for — the (node, epoch) of its
// last hello, if the aggregator admitted it — the last window said on
// it, either way, the last aggEpoch an ack said, and the last delta's
// seq. Each end keeps one; a hello zeroes it and its verdict binds it
// (admitted, to the hello's node and epoch; refused, to no one), and
// every frame, sent or parsed, moves it the same way on both ends —
// a refused or duplicate delta's too. A frame that does not parse closes
// the connection, so the two can never drift apart.
type wireContext struct {
	bound                 bool // the aggregator admitted the last hello, naming node and epoch
	node                  string
	epoch                 uint64
	window, aggEpoch, seq uint64
}

// appendOpt appends v as a uv and sets bit in flags when v is not the
// implied value.
func appendOpt(buf []byte, flags *byte, bit byte, v, implied uint64) []byte {
	if v == implied {
		return buf
	}
	*flags |= bit
	return binary.AppendUvarint(buf, v)
}

// errImplied poisons a cursor that read a flagged field equal to the
// value it would imply: that field has a shorter encoding, none.
var errImplied = fmt.Errorf("%w: flagged field equal to its implied value", errMalformed)

// readOpt reads a uv when bit is set in flags, else returns the implied
// value. A flagged uv equal to the implied value poisons r.
func readOpt(r *frame.Cursor, flags, bit byte, implied uint64) uint64 {
	if flags&bit == 0 {
		return implied
	}
	v := r.Uvarint()
	if v == implied && r.Err == nil {
		r.Err = errImplied
	}
	return v
}

// appendRequest encodes req as one frame into buf's storage and moves
// the context past it. Only a hello names req.Node and req.Epoch; a
// delta's folds 0 travels as 1.
func (c *wireContext) appendRequest(buf []byte, req *pushRequest) []byte {
	buf = frame.Begin(buf, uint8(req.Kind))
	switch req.Kind {
	case pushHello:
		*c = wireContext{}
		buf = frame.AppendString(buf, req.Node)
		buf = binary.AppendUvarint(buf, req.Epoch)
		buf = append(buf, req.ID...)
	case pushDelta:
		at, flags := len(buf), byte(0)
		buf = append(buf, 0)
		buf = appendOpt(buf, &flags, deltaWindow, req.Window, c.window)
		buf = appendOpt(buf, &flags, deltaSeq, req.Seq, c.seq+1)
		buf = appendOpt(buf, &flags, deltaFolds, uint64(max(req.Folds, 1)), 1)
		buf[at] = flags
		buf = append(buf, req.Payload...)
		c.window, c.seq = req.Window, req.Seq
	}
	return frame.End(buf)
}

// parseRequest decodes a request body into req, overwriting every
// field, and moves the context past it: a delta or bye leaves req.Node
// and req.Epoch empty, for the caller to fill from the connection's
// hello. req.Payload and req.ID alias body.
func (c *wireContext) parseRequest(kind pushKind, body []byte, req *pushRequest) error {
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
		*c = wireContext{}
	case pushDelta:
		flags := r.U8()
		req.Window = readOpt(&r, flags, deltaWindow, c.window)
		req.Seq = readOpt(&r, flags, deltaSeq, c.seq+1)
		folds := readOpt(&r, flags, deltaFolds, 1)
		if r.Err == nil && (flags&^deltaFlags != 0 || folds == 0 || folds > math.MaxUint32) {
			return fmt.Errorf("%w: delta flags %#x, folds %d", errMalformed, flags, folds)
		}
		req.Folds = uint32(folds)
		req.Payload = r.Take(len(r.B))
		c.window, c.seq = req.Window, req.Seq
	}
	if r.Err != nil || len(r.B) != 0 {
		return fmt.Errorf("%w: kind %d body does not parse", errMalformed, kind)
	}
	return nil
}

// appendAck encodes ack as one frame into buf's storage and moves the
// context past it.
func (c *wireContext) appendAck(buf []byte, ack *Ack) []byte {
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
	at := len(buf)
	buf = append(buf, 0)
	buf = appendOpt(buf, &status, ackWindow, ack.Window, c.window)
	buf = appendOpt(buf, &status, ackAggEpoch, ack.AggEpoch, c.aggEpoch)
	buf = appendOpt(buf, &status, ackStable, ack.Stable, c.seq)
	buf[at] = status
	c.window, c.aggEpoch = ack.Window, ack.AggEpoch
	msg := ack.Err
	if len(msg) > maxAckErr {
		msg = msg[:maxAckErr]
	}
	return frame.End(append(buf, msg...))
}

// parseAck decodes an ack body, every field filled in, and moves the
// context past it.
func (c *wireContext) parseAck(body []byte) (Ack, error) {
	r := frame.Cursor{B: body}
	status := r.U8()
	if r.Err != nil || status&^ackFlags != 0 || int(status&ackStatus) >= len(ackStatuses) {
		return Ack{}, fmt.Errorf("%w: ack status", errMalformed)
	}
	ack := Ack{
		Status:   ackStatuses[status&ackStatus],
		Applied:  status&ackApplied != 0,
		Window:   readOpt(&r, status, ackWindow, c.window),
		AggEpoch: readOpt(&r, status, ackAggEpoch, c.aggEpoch),
		Stable:   readOpt(&r, status, ackStable, c.seq),
	}
	if r.Err != nil || len(r.B) > maxAckErr {
		return Ack{}, fmt.Errorf("%w: ack does not parse", errMalformed)
	}
	ack.Err = string(r.B)
	c.window, c.aggEpoch = ack.Window, ack.AggEpoch
	return ack, nil
}
