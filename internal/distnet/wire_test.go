package distnet

import (
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
