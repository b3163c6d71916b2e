package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"csoutlier"
)

// The wire format. Every frame, in either direction, is a fixed
// six-byte prelude and a body:
//
//	length  uint32 LE  size of the body in bytes
//	version uint8      wireVersion
//	kind    uint8      pushHello … replyQuery
//	body    length bytes, laid out per kind:
//
//	hello, bye   str node | uv epoch
//	delta        str node | uv epoch | uv window | uv seq | uv folds |
//	             payload: the rest of the body, csoutlier's sketch codec
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
const wireVersion = 1

// Frame-size accounting, exported for harnesses that budget bytes per
// connection (internal/simtest's chaos proxies).
const (
	// FrameOverhead is the prelude in front of every frame body.
	FrameOverhead = 4 + 1 + 1
	// MaxNodeLen bounds a node name on the wire.
	MaxNodeLen = 256
	// MaxQueryBytes bounds a point-query frame body: the span and
	// threshold, then every watched key with its length prefix (32768
	// keys of 30 bytes, say). Longer watch lists are split by the caller.
	MaxQueryBytes = 1 << 20
	// MinDeltaOverhead and MaxDeltaOverhead bound what one delta exchange
	// — the frame and its Err-free ack — puts on the wire on top of the
	// node name and the sketch payload. A hello or bye exchange fits in
	// MaxDeltaOverhead plus the name.
	MinDeltaOverhead = 2*FrameOverhead + (1 + 4) + (1 + 3)
	MaxDeltaOverhead = 2*FrameOverhead + (binary.MaxVarintLen16 + 4*binary.MaxVarintLen64) + (1 + 3*binary.MaxVarintLen64)
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
var errMalformed = errors.New("stream: malformed frame")

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

// frameReader reads frames off one connection into one reused buffer.
type frameReader struct {
	r        io.Reader
	limits   frameLimits
	buf      []byte
	off, end int // buf[off:end] is read but not yet consumed
}

// next returns the next frame's kind and body. The body aliases the
// reader's buffer and is valid until the following call. io.EOF means
// the peer closed between frames; a close inside one is
// io.ErrUnexpectedEOF. The buffer grows to the largest body seen, never
// past the kind's limit.
func (fr *frameReader) next() (pushKind, []byte, error) {
	if err := fr.fill(FrameOverhead); err != nil {
		return 0, nil, err
	}
	p := fr.buf[fr.off:]
	n, version, kind := binary.LittleEndian.Uint32(p), p[4], pushKind(p[5])
	if version != wireVersion {
		return 0, nil, fmt.Errorf("%w: version %d", errMalformed, version)
	}
	if int(kind) >= len(fr.limits) || fr.limits[kind] == 0 {
		return 0, nil, fmt.Errorf("%w: unexpected kind %d", errMalformed, kind)
	}
	if uint64(n) > uint64(fr.limits[kind]) {
		return 0, nil, fmt.Errorf("%w: kind %d body of %d bytes, limit %d", errMalformed, kind, n, fr.limits[kind])
	}
	fr.off += FrameOverhead
	if err := fr.fill(int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	body := fr.buf[fr.off : fr.off+int(n)]
	fr.off += int(n)
	return kind, body, nil
}

// fill blocks until n unconsumed bytes are buffered.
func (fr *frameReader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
	fr.off = 0
	if n > len(fr.buf) {
		fr.buf = append(make([]byte, 0, n), fr.buf[:fr.end]...)[:n]
	}
	for fr.end < n {
		got, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += got
		if err != nil && fr.end < n {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// beginFrame starts a frame of the given kind in buf's storage;
// endFrame fills in the length once the body is appended.
func beginFrame(buf []byte, kind pushKind) []byte {
	return append(buf[:0], 0, 0, 0, 0, wireVersion, byte(kind))
}

func endFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-FrameOverhead))
	return buf
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendRequest encodes req as one frame into buf's storage.
func appendRequest(buf []byte, req *pushRequest) []byte {
	buf = beginFrame(buf, req.Kind)
	if req.Kind == pushPointQuery {
		buf = binary.AppendVarint(buf, int64(req.FromAge))
		buf = binary.AppendVarint(buf, int64(req.ToAge))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.Threshold))
		buf = binary.AppendUvarint(buf, uint64(len(req.Keys)))
		for _, k := range req.Keys {
			buf = appendString(buf, k)
		}
		return endFrame(buf)
	}
	buf = appendString(buf, req.Node)
	buf = binary.AppendUvarint(buf, req.Epoch)
	if req.Kind == pushDelta {
		buf = binary.AppendUvarint(buf, req.Window)
		buf = binary.AppendUvarint(buf, req.Seq)
		buf = binary.AppendUvarint(buf, uint64(req.Folds))
		buf = append(buf, req.Payload...)
	}
	return endFrame(buf)
}

// str reads a uvarint length and that many bytes.
func (r *byteReader) str() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		n = uint64(len(r.b)) + 1
	}
	return r.take(int(n))
}

func (r *byteReader) f64() float64 { return math.Float64frombits(r.u64()) }

// parseRequest decodes a request body into req, overwriting every
// field. req.Payload aliases body. The node name reuses req's previous
// one when unchanged — a connection speaks for one node, so the steady
// state allocates nothing.
func parseRequest(kind pushKind, body []byte, req *pushRequest) error {
	r := byteReader{b: body}
	node := req.Node
	*req = pushRequest{Kind: kind}
	if kind == pushPointQuery {
		req.FromAge = int(r.varint())
		req.ToAge = int(r.varint())
		req.Threshold = r.f64()
		n := r.uvarint()
		if n > uint64(len(r.b)) { // every key is at least its length byte
			return fmt.Errorf("%w: %d keys in %d bytes", errMalformed, n, len(r.b))
		}
		req.Keys = make([]string, n)
		for i := range req.Keys {
			req.Keys[i] = string(r.str())
		}
	} else {
		name := r.str()
		if len(name) > MaxNodeLen {
			return fmt.Errorf("%w: node name of %d bytes, limit %d", errMalformed, len(name), MaxNodeLen)
		}
		if string(name) != node {
			node = string(name)
		}
		req.Node = node
		req.Epoch = r.uvarint()
		if kind == pushDelta {
			req.Window = r.uvarint()
			req.Seq = r.uvarint()
			folds := r.uvarint()
			if folds > math.MaxUint32 {
				return fmt.Errorf("%w: folds %d", errMalformed, folds)
			}
			req.Folds = uint32(folds)
			req.Payload = r.take(len(r.b))
		}
	}
	if r.err != nil || len(r.b) != 0 {
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
	return endFrame(append(buf, msg...))
}

func parseAck(body []byte) (Ack, error) {
	r := byteReader{b: body}
	status := r.take(1)
	if r.err != nil || int(status[0]&^ackApplied) >= len(ackStatuses) {
		return Ack{}, fmt.Errorf("%w: ack status", errMalformed)
	}
	ack := Ack{
		Status:   ackStatuses[status[0]&^ackApplied],
		Applied:  status[0]&ackApplied != 0,
		Window:   r.uvarint(),
		AggEpoch: r.uvarint(),
		Stable:   r.uvarint(),
	}
	if r.err != nil {
		return Ack{}, fmt.Errorf("%w: ack does not parse", errMalformed)
	}
	ack.Err = string(r.b)
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
	buf = appendString(buf, msg)
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
	return endFrame(buf)
}

func parseQueryReply(body []byte) (QueryReply, error) {
	r := byteReader{b: body}
	reply := QueryReply{Err: string(r.str())}
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) || n*answerLen != uint64(len(r.b)) {
		return QueryReply{}, fmt.Errorf("%w: query reply does not parse", errMalformed)
	}
	if n > 0 {
		reply.Answers = make([]csoutlier.PointAnswer, n)
	}
	for i := range reply.Answers {
		a := &reply.Answers[i]
		a.Value, a.Mode = r.f64(), r.f64()
		a.Deviation = a.Value - a.Mode
		a.Outlier = r.take(1)[0] != 0
	}
	return reply, nil
}

// queryReplyLimit is the largest reply body to a query for n keys.
func queryReplyLimit(n int) int {
	return binary.MaxVarintLen16 + maxAckErr + binary.MaxVarintLen64 + n*answerLen
}
