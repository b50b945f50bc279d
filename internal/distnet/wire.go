// Package distnet trains BERT data-parallel across real worker
// processes connected by TCP sockets — the executable, measurable
// counterpart of both the in-process goroutine simulation (internal/ddp)
// and the analytical multi-device model (internal/dist, the paper's
// Section 5). Rank 0 hosts the rendezvous; workers dial in, exchange a
// rank/world handshake, and build a ring of persistent length-prefixed
// byte streams. Gradients are coalesced into fixed-size buckets and
// ring-all-reduced (reduce-scatter + all-gather, the same chunk math as
// ddp.RingAllReduce); with overlap enabled, each bucket's AllReduce
// launches the moment its last gradient is produced during backward, so
// only communication that outlives backprop is exposed — the D2 bar of
// the paper's Fig. 11, measured instead of modeled.
package distnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Wire protocol constants. Every message is a frame:
//
//	[tag u32][seq u32][len u32][len payload bytes]   (little-endian)
//
// Data frames carry float32 chunks; control messages (handshake,
// address table, barrier) use the same framing with string or u32-list
// payloads. Tag identifies the collective (bucket id, probe, barrier),
// seq the ring step within it — both are verified on receive, so a
// desynchronized peer surfaces as a protocol error instead of silently
// corrupted gradients. len is verified too, against what the receiver
// expects and before a byte of payload is buffered (see maxCtrlFrame).
const (
	protoVersion = 1

	magicCtrl = 0x44420001 // rendezvous handshake conn
	magicData = 0x44420002 // ring data conn

	frameHeaderBytes = 12

	tagHello   = 0xC0000001 // worker -> rank 0: version, rank, world, listen addr
	tagTable   = 0xC0000002 // rank 0 -> worker: data listener address table
	tagBarrier = 0xC0000003
	tagClock   = 0xC0000004 // clock-offset ping-pong (worker t1 -> rank 0 t2)
	tagShard   = 0xC0000005 // worker -> rank 0: JSON trace shard at end of run
	tagProbe   = 0xF0000000 // probe collectives: tagProbe+i
)

// conn wraps one persistent TCP stream with buffered framing, a reused
// payload scratch, and a per-operation I/O deadline, so a wedged or dead
// peer always surfaces as an error within the deadline instead of a
// hung worker.
type conn struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
	hdr     [frameHeaderBytes]byte
	buf     []byte // payload scratch, grown on demand

	bytesIn, bytesOut int64
}

func newConn(c net.Conn, timeout time.Duration) *conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // lockstep chunk exchange; never wait for Nagle
	}
	return &conn{
		c:       c,
		br:      bufio.NewReaderSize(c, 1<<16),
		bw:      bufio.NewWriterSize(c, 1<<16),
		timeout: timeout,
	}
}

func (c *conn) grow(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// writeFrame sends one frame whose payload is the little-endian encoding
// of data, using the reused scratch (zero steady-state allocations once
// the scratch has grown to the largest chunk).
func (c *conn) writeFrame(tag, seq uint32, data []float32) error {
	nb := 4 * len(data)
	buf := c.grow(nb)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return c.writeRaw(tag, seq, buf)
}

func (c *conn) writeRaw(tag, seq uint32, payload []byte) error {
	if err := c.c.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(c.hdr[0:], tag)
	binary.LittleEndian.PutUint32(c.hdr[4:], seq)
	binary.LittleEndian.PutUint32(c.hdr[8:], uint32(len(payload)))
	if _, err := c.bw.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
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

// readFrame receives one frame, verifying tag, seq, and payload size —
// all three against the header alone, before the payload is buffered.
// The returned bytes alias the conn's scratch and are valid until the
// next read.
func (c *conn) readFrame(tag, seq uint32, elems int) ([]byte, error) {
	gotTag, gotSeq, nb, err := c.readHeader()
	if err != nil {
		return nil, err
	}
	if gotTag != tag || gotSeq != seq {
		return nil, fmt.Errorf("distnet: protocol desync: got frame tag %#x seq %d, want %#x seq %d",
			gotTag, gotSeq, tag, seq)
	}
	if int64(nb) != 4*int64(elems) {
		return nil, &frameSizeError{tag, seq, nb, fmt.Sprint("exactly ", 4*elems)}
	}
	return c.readPayload(nb)
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

// decodeSum adds the frame payload element-wise into dst (the
// reduce-scatter accumulate: dst[i] += recv[i], matching
// ddp.Ring.runRank so world=2 results are bit-identical to the
// in-process trainer).
func decodeSum(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}

// decodeCopy overwrites dst with the frame payload (the all-gather
// move).
func decodeCopy(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}
