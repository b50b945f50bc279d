package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// FuzzReadFrame feeds arbitrary bytes to both frame readers through a
// net.Pipe. Either the read fails — a *frameSizeError or a short stream —
// or it returns exactly the payload the header declared. It never panics,
// and the scratch never grows past what the receiver agreed to accept.
func FuzzReadFrame(f *testing.F) {
	frame := func(tag, seq, declared uint32, payload []byte) []byte {
		b := make([]byte, frameHeaderBytes, frameHeaderBytes+len(payload))
		binary.LittleEndian.PutUint32(b[0:], tag)
		binary.LittleEndian.PutUint32(b[4:], seq)
		binary.LittleEndian.PutUint32(b[8:], declared)
		return append(b, payload...)
	}
	f.Add(frame(7, 3, 16, make([]byte, 16)), uint32(7), uint32(3), uint16(4), false)         // valid data frame
	f.Add(frame(tagTable, 0, 5, []byte("table")), uint32(0), uint32(0), uint16(0), true)     // valid control frame
	f.Add(frame(7, 3, 1<<30, nil), uint32(7), uint32(3), uint16(4), false)                   // oversize data frame
	f.Add(frame(tagHello, 0, 1<<30, []byte("x")), uint32(0), uint32(0), uint16(0), true)     // oversize control frame
	f.Add(frame(7, 3, 16, make([]byte, 5)), uint32(7), uint32(3), uint16(4), false)          // truncated payload
	f.Add(frame(tagShard, 1, 900, make([]byte, 300)), uint32(0), uint32(0), uint16(0), true) // truncated control frame
	f.Fuzz(func(t *testing.T, stream []byte, tag, seq uint32, elems uint16, anyTag bool) {
		peer, local := net.Pipe()
		defer peer.Close()
		defer local.Close() // unblocks the writer if the reader stopped early
		go func() {
			peer.Write(stream)
			peer.Close()
		}()
		c := newConn(local, time.Second)
		var payload []byte
		var err error
		bound := 4 * int(elems)
		if anyTag {
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
