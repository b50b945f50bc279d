// Package distnet trains BERT data-parallel across real worker
// processes connected by TCP sockets — the executable, measurable
// counterpart of the analytical multi-device model (internal/dist, the
// paper's Section 5). Rank 0 hosts the rendezvous; workers dial in,
// exchange a rank/world handshake, and build a ring of persistent
// length-prefixed byte streams. Gradients are coalesced into fixed-size
// buckets and ring-all-reduced (reduce-scatter + all-gather over chunks
// [c·n/D, (c+1)·n/D)); with overlap enabled, each bucket's AllReduce
// launches the moment its last gradient is produced during backward, so
// only communication that outlives backprop is exposed — the D2 bar of
// the paper's Fig. 11, measured instead of modeled. The same ring runs
// Megatron tensor slicing (SlicedLayer, Fig. 10): one rank per shard,
// four AllReduces per layer.
package distnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
	"unsafe"
)

// Wire protocol constants. Every message is a frame:
//
//	[tag u32][seq u32][len u32][len payload bytes]   (little-endian)
//
// Data frames carry float32 chunks as their little-endian bits — on a
// little-endian host, the chunk's memory itself (wire_le.go); control
// messages (handshake, address table, barrier) use the same framing with
// string or u32-list payloads. Tag identifies the collective (bucket id,
// probe, barrier), seq the ring step within it — both are verified on
// receive, so a desynchronized peer surfaces as a protocol error instead
// of silently corrupted gradients. len is verified too, against what the
// receiver expects and before a byte of payload is read (see
// maxCtrlFrame).
const (
	protoVersion = 1

	// magicData tags the first frame on a ring data conn, the dialer's
	// rank in seq; a control conn opens with tagHello instead.
	magicData = 0x44420002

	frameHeaderBytes = 12

	tagHello   = 0xC0000001 // worker -> rank 0: version, rank, world, listen addr
	tagTable   = 0xC0000002 // rank 0 -> worker: data listener address table
	tagBarrier = 0xC0000003
	tagClock   = 0xC0000004 // clock-offset ping-pong (worker t1 -> rank 0 t2)
	tagShard   = 0xC0000005 // worker -> rank 0: JSON trace shard at end of run
	tagSlice   = 0xE0000000 // tensor-sliced layer collectives: tagSlice+0..3
	tagProbe   = 0xF0000000 // probe collectives: tagProbe+i
)

// conn wraps one persistent TCP stream with framing, reused scratches,
// and a per-operation I/O deadline, so a wedged or dead peer always
// surfaces as an error within the deadline instead of a hung worker.
type conn struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration
	hdr     [frameHeaderBytes]byte
	iov     [2][]byte   // header and payload of the frame being written
	vec     net.Buffers // iov as handed to the vectored write
	buf     []byte      // control-frame payload scratch, grown on demand
	piece   []float32   // reduce-scatter receive scratch, at most pieceElems

	bytesIn, bytesOut int64
}

// pieceElems bounds the reduce-scatter receive scratch: a summed frame is
// read in pieces of at most 64 KiB, each folded in while still in cache.
const pieceElems = 64 << 10 / 4

func newConn(c net.Conn, timeout time.Duration) *conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // lockstep chunk exchange; never wait for Nagle
	}
	return &conn{
		c:       c,
		br:      bufio.NewReaderSize(c, 1<<16),
		timeout: timeout,
	}
}

func (c *conn) grow(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// floatBytes views a float32 slice's memory as bytes.
func floatBytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// writeRaw sends one frame, header and payload in one vectored write. A
// data frame's payload is wireBytes: on a little-endian host the float32
// memory itself, with no encode step.
func (c *conn) writeRaw(tag, seq uint32, payload []byte) error {
	if err := c.c.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(c.hdr[0:], tag)
	binary.LittleEndian.PutUint32(c.hdr[4:], seq)
	binary.LittleEndian.PutUint32(c.hdr[8:], uint32(len(payload)))
	c.iov = [2][]byte{c.hdr[:], payload}
	c.vec = c.iov[:] // a field, so WriteTo's pointer receiver does not allocate
	if _, err := c.vec.WriteTo(c.c); err != nil {
		return err
	}
	n := int64(frameHeaderBytes + len(payload))
	c.bytesOut += n
	txBytes.Add(n)
	return nil
}

// Limits for the frames whose length the receiver cannot know in advance.
// A data frame needs none: its receiver was told the element count and
// accepts exactly 4·elems bytes. The scratch never grows to a size this
// rank did not agree to.
const (
	// maxCtrlFrame bounds the handshake: a hello (12 bytes + one address),
	// the address table (one address per rank), the empty ring hello.
	maxCtrlFrame = 64 << 10
	// maxShardFrame bounds one worker's JSON trace shard: a full span ring
	// (trace.DefaultRingCap = 65536 spans at ~250 bytes each) fits.
	maxShardFrame = 32 << 20
)

// frameSizeError reports a frame whose header announces a payload the
// receiver did not agree to: a desynchronized or hostile peer. It is
// returned before any of the payload is read or buffered.
type frameSizeError struct {
	tag, seq, announced uint32
	accepts             string // "exactly N" or "at most N"
}

func (e *frameSizeError) Error() string {
	return fmt.Sprintf("distnet: frame tag %#x seq %d announces %d bytes, receiver accepts %s",
		e.tag, e.seq, e.announced, e.accepts)
}

// expect reads the next header and verifies tag, seq, and a payload of
// exactly 4·elems bytes, before a byte of payload is read.
func (c *conn) expect(tag, seq uint32, elems int) error {
	gotTag, gotSeq, nb, err := c.readHeader()
	if err != nil {
		return err
	}
	if gotTag != tag || gotSeq != seq {
		return fmt.Errorf("distnet: protocol desync: got frame tag %#x seq %d, want %#x seq %d",
			gotTag, gotSeq, tag, seq)
	}
	if int64(nb) != 4*int64(elems) {
		return &frameSizeError{tag, seq, nb, fmt.Sprint("exactly ", 4*elems)}
	}
	return nil
}

// readFrame receives one control frame of 4·elems bytes into the conn's
// scratch, valid until the next read.
func (c *conn) readFrame(tag, seq uint32, elems int) ([]byte, error) {
	if err := c.expect(tag, seq, elems); err != nil {
		return nil, err
	}
	return c.readPayload(uint32(4 * elems))
}

// readData receives one data frame into dst with no decode step. scale 0
// reads the payload straight into dst's memory (the all-gather move);
// otherwise pieces of at most pieceElems are folded in while still in
// cache: dst[i] = float32(dst[i]+recv[i])·scale. A refused header leaves
// dst untouched; after a later error dst is unspecified, and the caller
// fails the group.
func (c *conn) readData(tag, seq uint32, dst []float32, scale float32) error {
	if err := c.expect(tag, seq, len(dst)); err != nil {
		return err
	}
	if scale == 0 {
		if err := readFloats(c.br, dst); err != nil {
			return err
		}
	} else {
		for rest := dst; len(rest) > 0; {
			n := min(len(rest), pieceElems)
			if cap(c.piece) < n {
				c.piece = make([]float32, n)
			}
			if err := readFloats(c.br, c.piece[:n]); err != nil {
				return err
			}
			fold(rest[:n], c.piece[:n], scale)
			rest = rest[n:]
		}
	}
	n := int64(frameHeaderBytes) + 4*int64(len(dst))
	c.bytesIn += n
	rxBytes.Add(n)
	return nil
}

// fold is the reduce-scatter accumulate. A plain sum passes scale 1:
// multiplying by 1 returns every value an addition can produce, NaN
// payloads included, bit for bit.
func fold(dst, recv []float32, scale float32) {
	dst = dst[:len(recv)]
	for i, v := range recv {
		dst[i] = float32(dst[i]+v) * scale
	}
}

// readAny receives the next frame whatever its tag (the handshake path,
// where the expected tag depends on who dialed), refusing one that
// announces more than limit bytes.
func (c *conn) readAny(limit int) (payload []byte, tag, seq uint32, err error) {
	tag, seq, nb, err := c.readHeader()
	if err != nil {
		return nil, 0, 0, err
	}
	if int64(nb) > int64(limit) {
		return nil, 0, 0, &frameSizeError{tag, seq, nb, fmt.Sprint("at most ", limit)}
	}
	payload, err = c.readPayload(nb)
	return payload, tag, seq, err
}

func (c *conn) readHeader() (tag, seq, nb uint32, err error) {
	if err := c.c.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, 0, 0, err
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	return binary.LittleEndian.Uint32(c.hdr[0:]),
		binary.LittleEndian.Uint32(c.hdr[4:]),
		binary.LittleEndian.Uint32(c.hdr[8:]), nil
}

// readPayload buffers the nb payload bytes of the frame whose header was
// just accepted.
func (c *conn) readPayload(nb uint32) ([]byte, error) {
	buf := c.grow(int(nb))
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	n := int64(frameHeaderBytes) + int64(nb)
	c.bytesIn += n
	rxBytes.Add(n)
	return buf, nil
}

func (c *conn) close() error { return c.c.Close() }
