package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// TestOversizedFrameRefusedBeforeAllocation: a peer that announces a
// payload the receiver did not agree to — 1 GiB here, which the old 1 GiB
// sanity cap let through — gets a typed error from the header alone. The
// receiver used to grow its scratch to the announced size and then block
// in ReadFull until the deadline.
func TestOversizedFrameRefusedBeforeAllocation(t *testing.T) {
	const announced = 1 << 30
	cases := []struct {
		name string
		tag  uint32
		read func(c *conn) error
	}{
		{"data frame, 16 bytes expected", 7, func(c *conn) error { _, err := c.readFrame(7, 3, 4); return err }},
		{"barrier, empty frame expected", tagBarrier, func(c *conn) error { _, err := c.readFrame(tagBarrier, 3, 0); return err }},
		{"clock pong, 8 bytes expected", tagClock, func(c *conn) error { _, err := c.readFrame(tagClock, 3, 2); return err }},
		{"hello", tagHello, func(c *conn) error { _, _, _, err := c.readAny(maxCtrlFrame); return err }},
		{"address table", tagTable, func(c *conn) error { _, _, _, err := c.readAny(maxCtrlFrame); return err }},
		{"trace shard", tagShard, func(c *conn) error { _, _, _, err := c.readAny(maxShardFrame); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer, local := net.Pipe()
			defer peer.Close()
			defer local.Close()
			go func() { // the raw peer: a header and nothing else
				var hdr [frameHeaderBytes]byte
				binary.LittleEndian.PutUint32(hdr[0:], tc.tag)
				binary.LittleEndian.PutUint32(hdr[4:], 3)
				binary.LittleEndian.PutUint32(hdr[8:], announced)
				peer.Write(hdr[:]) // fails only if the test already ended
			}()
			c := newConn(local, 2*time.Second)
			before := cap(c.buf)
			start := time.Now()
			err := tc.read(c)
			var fe *frameSizeError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want a *frameSizeError", err)
			}
			if fe.announced != announced || fe.tag != tc.tag {
				t.Errorf("error describes tag %#x, %d bytes; sent tag %#x, %d bytes", fe.tag, fe.announced, tc.tag, announced)
			}
			if cap(c.buf) != before {
				t.Errorf("scratch grew from %d to %d bytes on a refused frame", before, cap(c.buf))
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("refusal took %v: the reader waited for the payload", d)
			}
		})
	}
}

// TestJoinRefusesOversizedHello is the same defect at the trust boundary
// itself: anything that can reach rank 0's rendezvous port could make it
// allocate 1 GiB and sit out the handshake deadline.
func TestJoinRefusesOversizedHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return // Join has already failed the test
		}
		defer raw.Close()
		var hdr [frameHeaderBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:], tagHello)
		binary.LittleEndian.PutUint32(hdr[8:], 1<<30)
		raw.Write(hdr[:])
		<-done // hold the conn open: rank 0 must not be waiting for us
	}()
	start := time.Now()
	_, err = Join(Config{Rank: 0, World: 2, Listener: ln, Timeout: 10 * time.Second})
	var fe *frameSizeError
	if !errors.As(err, &fe) {
		t.Fatalf("Join returned %v, want a *frameSizeError", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Join took %v to refuse the hello", d)
	}
}

// TestDataFrameWireBytes pins what the zero-copy send puts on the wire:
// [tag][seq][len] and then each float32's little-endian bits, NaN
// payloads, signed zeros and subnormals included.
func TestDataFrameWireBytes(t *testing.T) {
	data := []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(1),
		float32(math.Inf(-1)), math.Float32frombits(0x7fc00123), -3.25e-7}
	peer, local := net.Pipe()
	defer peer.Close()
	defer local.Close()
	sent := make(chan error, 1)
	go func() {
		c := newConn(local, 2*time.Second)
		sent <- c.writeRaw(0xABCD, 7, c.wireBytes(data))
	}()
	got := make([]byte, frameHeaderBytes+4*len(data))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32(nil, 0xABCD)
	want = binary.LittleEndian.AppendUint32(want, 7)
	want = binary.LittleEndian.AppendUint32(want, uint32(4*len(data)))
	for _, v := range data {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame on the wire:\n got %x\nwant %x", got, want)
	}
}

// decodeSum and decodeCopy are the decode loops the receive path used
// before it read frames straight into the destination: the oracle for
// conn.readData.
func decodeSum(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}

func decodeCopy(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}

// dataFrame is a header declaring declared bytes followed by payload.
func dataFrame(tag, seq, declared uint32, payload []byte) []byte {
	b := make([]byte, frameHeaderBytes, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(b[0:], tag)
	binary.LittleEndian.PutUint32(b[4:], seq)
	binary.LittleEndian.PutUint32(b[8:], declared)
	return append(b, payload...)
}

// floatPayload is the little-endian encoding of n floats cycling through
// NaNs with payloads, ±0, subnormals, ±Inf and ordinary values.
func floatPayload(n int) []byte {
	bits := []uint32{0x7fc00123, 0x80000000, 0x00000001, 0x7f800000, 0xff800000,
		0x3fc00000, 0xffbfffff, 0x807fffff, 0x00000000, 0xc0490fdb}
	b := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint32(b, bits[i%len(bits)])
	}
	return b
}

// readScales are the readData modes FuzzReadFrame drives: the all-gather
// copy, the plain reduce-scatter sum, and an owner's averaging step.
var readScales = []float32{0, 1, 1.0 / 3}

// FuzzReadFrame feeds arbitrary bytes through a net.Pipe to every frame
// reader: the control readers (mode 0 readFrame, 1 readAny) and the data
// receive in its copy, sum and averaging modes (2, 3, 4). Nothing
// panics, and no scratch grows past what the receiver agreed to accept —
// for data, at most one piece. A control read either fails or returns
// exactly the declared payload. A data header that is incomplete, off
// tag/seq, or announces anything but 4·elems bytes is refused (the size
// as a *frameSizeError) with dst untouched; a short payload is an error;
// a complete frame leaves dst bitwise what the old decodeCopy/decodeSum
// (then ·scale) produced.
func FuzzReadFrame(f *testing.F) {
	const copyMode, sumMode, avgMode = 2, 3, 4
	f.Add(dataFrame(7, 3, 16, make([]byte, 16)), uint32(7), uint32(3), uint16(4), uint8(0))          // valid data frame
	f.Add(dataFrame(tagTable, 0, 5, []byte("table")), uint32(0), uint32(0), uint16(0), uint8(1))     // valid control frame
	f.Add(dataFrame(7, 3, 1<<30, nil), uint32(7), uint32(3), uint16(4), uint8(0))                    // oversize data frame
	f.Add(dataFrame(tagHello, 0, 1<<30, []byte("x")), uint32(0), uint32(0), uint16(0), uint8(1))     // oversize control frame
	f.Add(dataFrame(7, 3, 16, make([]byte, 5)), uint32(7), uint32(3), uint16(4), uint8(0))           // truncated payload
	f.Add(dataFrame(tagShard, 1, 900, make([]byte, 300)), uint32(0), uint32(0), uint16(0), uint8(1)) // truncated control frame
	for _, mode := range []uint8{copyMode, sumMode, avgMode} {
		f.Add(dataFrame(9, 1, 40, floatPayload(10)), uint32(9), uint32(1), uint16(10), mode)          // NaN, ±0, subnormal, ±Inf
		f.Add(dataFrame(9, 1, 36, floatPayload(9)), uint32(9), uint32(1), uint16(10), mode)           // one element short
		f.Add(dataFrame(9, 1, 40, floatPayload(7)), uint32(9), uint32(1), uint16(10), mode)           // truncated payload
		f.Add(dataFrame(9, 2, 40, floatPayload(10)), uint32(9), uint32(1), uint16(10), mode)          // wrong seq
		f.Add(dataFrame(9, 1, 80000, floatPayload(20000)), uint32(9), uint32(1), uint16(20000), mode) // two pieces
	}
	f.Fuzz(func(t *testing.T, stream []byte, tag, seq uint32, elems uint16, mode uint8) {
		peer, local := net.Pipe()
		defer peer.Close()
		defer local.Close() // unblocks the writer if the reader stopped early
		go func() {
			peer.Write(stream)
			peer.Close()
		}()
		c := newConn(local, time.Second)
		mode %= 5
		if mode >= copyMode {
			fuzzReadData(t, c, stream, tag, seq, int(elems), readScales[mode-copyMode])
			return
		}
		var payload []byte
		var err error
		bound := 4 * int(elems)
		if mode == 1 {
			bound = 1 << 12
			payload, _, _, err = c.readAny(bound)
		} else {
			payload, err = c.readFrame(tag, seq, int(elems))
		}
		if cap(c.buf) > bound {
			t.Fatalf("scratch grew to %d bytes, receiver accepts at most %d", cap(c.buf), bound)
		}
		if err != nil {
			return
		}
		declared := int(binary.LittleEndian.Uint32(stream[8:]))
		if len(payload) != declared || !bytes.Equal(payload, stream[frameHeaderBytes:frameHeaderBytes+declared]) {
			t.Fatalf("read %d bytes %x, header declared %d bytes %x", len(payload), payload,
				declared, stream[frameHeaderBytes:])
		}
	})
}

// fuzzReadData is FuzzReadFrame's data-receive leg.
func fuzzReadData(t *testing.T, c *conn, stream []byte, tag, seq uint32, elems int, scale float32) {
	// NaN-free, so a sum never meets two NaNs and the result's payload is
	// fixed by IEEE 754, not by operand order.
	start := []float32{1.5, float32(math.Copysign(0, -1)), 0, math.Float32frombits(1),
		float32(math.Inf(1)), float32(math.Inf(-1)), -3.25, 1e30, math.Float32frombits(0x807fffff)}
	dst := make([]float32, elems)
	for i := range dst {
		dst[i] = start[i%len(start)]
	}
	before := append([]float32(nil), dst...)
	err := c.readData(tag, seq, dst, scale)
	if cap(c.buf) != 0 || cap(c.piece) > min(elems, pieceElems) {
		t.Fatalf("data receive grew scratches to %d bytes and %d floats; one piece is %d floats",
			cap(c.buf), cap(c.piece), min(elems, pieceElems))
	}
	untouched := func() {
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(before[i]) {
				t.Fatalf("refused frame changed dst[%d] from %v to %v", i, before[i], dst[i])
			}
		}
	}
	if len(stream) < frameHeaderBytes {
		if err == nil {
			t.Fatal("read a frame from a stream shorter than its header")
		}
		untouched()
		return
	}
	declared := int(binary.LittleEndian.Uint32(stream[8:]))
	if binary.LittleEndian.Uint32(stream[0:]) != tag || binary.LittleEndian.Uint32(stream[4:]) != seq {
		if err == nil {
			t.Fatal("accepted a frame with the wrong tag or seq")
		}
		untouched()
		return
	}
	if declared != 4*elems {
		var fe *frameSizeError
		if !errors.As(err, &fe) {
			t.Fatalf("header announces %d bytes for %d elems: got %v, want a *frameSizeError", declared, elems, err)
		}
		untouched()
		return
	}
	if len(stream)-frameHeaderBytes < declared {
		if err == nil {
			t.Fatalf("accepted a %d-byte payload from %d bytes", declared, len(stream)-frameHeaderBytes)
		}
		return
	}
	if err != nil {
		t.Fatalf("complete frame refused: %v", err)
	}
	want := before
	payload := stream[frameHeaderBytes : frameHeaderBytes+declared]
	if scale == 0 {
		decodeCopy(want, payload)
	} else {
		decodeSum(want, payload)
		if scale != 1 {
			for i := range want {
				want[i] *= scale
			}
		}
	}
	for i := range dst {
		if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
			t.Fatalf("scale %v elem %d: received %#x, decode oracle %#x", scale, i,
				math.Float32bits(dst[i]), math.Float32bits(want[i]))
		}
	}
}
