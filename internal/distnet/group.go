package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultTimeout bounds every dial, handshake, and frame I/O when
// Config.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// Config describes one rank's membership in a process group.
type Config struct {
	Rank  int
	World int
	// Addr is rank 0's rendezvous address (host:port). Workers dial it;
	// rank 0 listens on it unless Listener is provided.
	Addr string
	// Listener, when non-nil on rank 0, is the pre-bound rendezvous
	// listener (lets tests and launchers bind ":0" and learn the port
	// before workers join). The group takes ownership and closes it.
	Listener net.Listener
	// Timeout bounds every dial, handshake, read, and write. A peer that
	// dies or wedges surfaces as an error within this bound at every
	// surviving rank. Zero means DefaultTimeout.
	Timeout time.Duration
}

// Group is one rank's view of an established process group: a control
// stream to rank 0 (rank 0 holds one per worker) and two persistent
// ring streams — next (to rank+1) and prev (from rank-1). A world-1
// group has no sockets and all collectives are no-ops.
//
// Collectives (AllReduce, Barrier, ProbeLink) must be issued by all
// ranks in the same order; one collective may be in flight per Group at
// a time. On any transport error the whole group is torn down: every
// conn is closed so peers blocked in reads fail immediately instead of
// waiting out their deadline, and the first error is sticky.
type Group struct {
	rank, world int
	timeout     time.Duration

	next, prev *conn
	ctrl       *conn   // workers: stream to rank 0
	ctrls      []*conn // rank 0: stream per worker, index rank-1

	sends      chan sendReq  // to the sender goroutine (allreduce.go)
	sendErr    chan error    // the sender's result for each send
	quit       chan struct{} // closed by Close and fail: the sender exits
	senderDone chan struct{} // made when Join starts the sender, closed when it exits
	bounds     []int         // AllReduce's chunk bounds, world+1 entries

	mu     sync.Mutex
	err    error
	closed bool
}

// Rank returns this member's rank.
func (g *Group) Rank() int { return g.rank }

// World returns the group size.
func (g *Group) World() int { return g.world }

// Join establishes the process group and blocks until the full ring is
// connected or the timeout expires. Rank 0 listens for world-1 worker
// handshakes (verifying agreed world size and unique ranks), broadcasts
// the data-listener address table, and the ranks then dial their ring
// successors directly.
func Join(cfg Config) (*Group, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("distnet: world size %d < 1", cfg.World)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("distnet: rank %d outside [0,%d)", cfg.Rank, cfg.World)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	g := &Group{
		rank:    cfg.Rank,
		world:   cfg.World,
		timeout: timeout,
		sends:   make(chan sendReq, 1),
		sendErr: make(chan error, 1),
		quit:    make(chan struct{}),
		bounds:  make([]int, cfg.World+1),
	}
	if cfg.World == 1 {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return g, nil
	}
	var err error
	if cfg.Rank == 0 {
		err = g.joinRank0(cfg)
	} else {
		err = g.joinWorker(cfg)
	}
	if err != nil {
		countTimeout(deadlineHandshake, err)
		g.Close()
		return nil, err
	}
	g.senderDone = make(chan struct{})
	go g.sender()
	return g, nil
}

// JoinLoopback forms a complete process group inside this process, one
// goroutine per rank, over real TCP sockets on 127.0.0.1 — what parity
// tests and the numerics audit run their world-N legs on. On error every
// rank that did join is closed; on success the caller closes the groups.
func JoinLoopback(world int, timeout time.Duration) ([]*Group, error) {
	if world < 1 {
		return nil, fmt.Errorf("distnet: world size %d < 1", world)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	groups := make([]*Group, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		cfg := Config{Rank: r, World: world, Addr: ln.Addr().String(), Timeout: timeout}
		if r == 0 {
			cfg.Listener = ln // the group takes ownership
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			groups[r], errs[r] = Join(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, g := range groups {
				if g != nil {
					g.Close()
				}
			}
			return nil, fmt.Errorf("distnet: loopback rank %d: %w", r, err)
		}
	}
	return groups, nil
}

func (g *Group) joinRank0(cfg Config) error {
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return fmt.Errorf("distnet: rank 0 listen %s: %w", cfg.Addr, err)
		}
	}
	defer ln.Close()
	deadline := time.Now().Add(g.timeout)
	setListenerDeadline(ln, deadline)

	// Phase 1: collect every worker's hello {version, rank, world,
	// data-listener addr}.
	g.ctrls = make([]*conn, g.world-1)
	addrs := make([]string, g.world)
	addrs[0] = ln.Addr().String()
	for got := 0; got < g.world-1; got++ {
		raw, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("distnet: rank 0 waiting for %d more worker(s): %w", g.world-1-got, err)
		}
		c := newConn(raw, g.timeout)
		payload, tag, _, err := c.readAny(maxCtrlFrame)
		if err != nil {
			return fmt.Errorf("distnet: rank 0 handshake read: %w", err)
		}
		if tag != tagHello {
			return fmt.Errorf("distnet: rank 0 expected hello, got frame tag %#x", tag)
		}
		ver, r, w, addr, err := parseHello(payload)
		if err != nil {
			return err
		}
		switch {
		case ver != protoVersion:
			return fmt.Errorf("distnet: worker speaks protocol v%d, rank 0 speaks v%d", ver, protoVersion)
		case w != g.world:
			return fmt.Errorf("distnet: worker rank %d joined with world %d, rank 0 has world %d", r, w, g.world)
		case r < 1 || r >= g.world:
			return fmt.Errorf("distnet: worker rank %d outside [1,%d)", r, g.world)
		case g.ctrls[r-1] != nil:
			return fmt.Errorf("distnet: duplicate rank %d in rendezvous", r)
		}
		g.ctrls[r-1] = c
		addrs[r] = addr
	}

	// Phase 2: broadcast the address table; every rank can now build the
	// ring.
	table := encodeTable(addrs)
	for r, c := range g.ctrls {
		if err := c.writeRaw(tagTable, 0, table); err != nil {
			return fmt.Errorf("distnet: rank 0 sending table to rank %d: %w", r+1, err)
		}
	}

	// Phase 3: ring. Dial the successor, accept the predecessor
	// (rank world-1) on the rendezvous listener.
	var err error
	g.next, err = g.dialRing(addrs[1%g.world], deadline)
	if err != nil {
		return err
	}
	raw, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("distnet: rank 0 waiting for ring predecessor %d: %w", g.world-1, err)
	}
	g.prev = newConn(raw, g.timeout)
	return g.acceptRing(g.prev, g.world-1)
}

func (g *Group) joinWorker(cfg Config) error {
	deadline := time.Now().Add(g.timeout)
	host, _, err := net.SplitHostPort(cfg.Addr)
	if err != nil {
		return fmt.Errorf("distnet: bad rendezvous address %q: %w", cfg.Addr, err)
	}
	// Own data listener on an ephemeral port; the predecessor dials it.
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("distnet: rank %d data listen: %w", g.rank, err)
	}
	defer ln.Close()
	setListenerDeadline(ln, deadline)

	// Hello to rank 0, then wait for the address table.
	raw, err := dialRetry(cfg.Addr, deadline)
	if err != nil {
		return fmt.Errorf("distnet: rank %d dialing rendezvous %s: %w", g.rank, cfg.Addr, err)
	}
	g.ctrl = newConn(raw, g.timeout)
	hello := encodeHello(protoVersion, g.rank, g.world, ln.Addr().String())
	if err := g.ctrl.writeRaw(tagHello, uint32(g.rank), hello); err != nil {
		return fmt.Errorf("distnet: rank %d hello: %w", g.rank, err)
	}
	payload, tag, _, err := g.ctrl.readAny(maxCtrlFrame)
	if err != nil {
		return fmt.Errorf("distnet: rank %d waiting for address table (rendezvous rejected the group?): %w", g.rank, err)
	}
	if tag != tagTable {
		return fmt.Errorf("distnet: rank %d expected address table, got frame tag %#x", g.rank, tag)
	}
	addrs, err := decodeTable(payload, g.world)
	if err != nil {
		return err
	}

	// Ring: dial the successor, accept the predecessor.
	g.next, err = g.dialRing(addrs[(g.rank+1)%g.world], deadline)
	if err != nil {
		return err
	}
	rawPrev, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("distnet: rank %d waiting for ring predecessor: %w", g.rank, err)
	}
	g.prev = newConn(rawPrev, g.timeout)
	return g.acceptRing(g.prev, g.rank-1)
}

// dialRing connects to the successor's data listener and identifies
// itself.
func (g *Group) dialRing(addr string, deadline time.Time) (*conn, error) {
	raw, err := dialRetry(addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("distnet: rank %d dialing ring successor %s: %w", g.rank, addr, err)
	}
	c := newConn(raw, g.timeout)
	if err := c.writeRaw(magicData, uint32(g.rank), nil); err != nil {
		return nil, fmt.Errorf("distnet: rank %d ring handshake: %w", g.rank, err)
	}
	return c, nil
}

// acceptRing verifies the inbound ring conn really is the expected
// predecessor.
func (g *Group) acceptRing(c *conn, wantRank int) error {
	payload, tag, seq, err := c.readAny(maxCtrlFrame)
	if err != nil {
		return fmt.Errorf("distnet: rank %d ring accept: %w", g.rank, err)
	}
	if tag != magicData || len(payload) != 0 {
		return fmt.Errorf("distnet: rank %d ring accept: unexpected frame tag %#x", g.rank, tag)
	}
	if int(seq) != wantRank {
		return fmt.Errorf("distnet: rank %d ring accept: peer claims rank %d, want %d", g.rank, seq, wantRank)
	}
	return nil
}

// errNow returns the sticky failure, if any.
func (g *Group) errNow() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if g.closed {
		return errClosed
	}
	return nil
}

var errClosed = errors.New("distnet: group closed")

// fail records the first error and tears the group down so every
// in-flight and future operation — here and at blocked peers — returns
// promptly instead of hanging.
func (g *Group) fail(err error) error {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	err = g.err
	alreadyClosed := g.closed
	g.closed = true
	g.mu.Unlock()
	if !alreadyClosed {
		g.teardown()
	}
	return err
}

// Close tears down every stream and waits for the sender to exit.
// Idempotent; safe to call concurrently with a blocked collective.
func (g *Group) Close() error {
	g.mu.Lock()
	alreadyClosed := g.closed
	g.closed = true
	g.mu.Unlock()
	if !alreadyClosed {
		g.teardown()
	}
	if g.senderDone != nil { // nil: world 1, or Join failed
		<-g.senderDone
	}
	return nil
}

func (g *Group) teardown() {
	close(g.quit)
	for _, c := range []*conn{g.next, g.prev, g.ctrl} {
		if c != nil {
			c.close()
		}
	}
	for _, c := range g.ctrls {
		if c != nil {
			c.close()
		}
	}
}

// WireBytes returns the cumulative bytes sent and received on this
// rank's ring streams (frame headers included).
func (g *Group) WireBytes() (tx, rx int64) {
	if g.next != nil {
		tx += g.next.bytesOut
		rx += g.next.bytesIn
	}
	if g.prev != nil {
		tx += g.prev.bytesOut
		rx += g.prev.bytesIn
	}
	return tx, rx
}

// Barrier blocks until every rank has entered it: workers report to
// rank 0 over their control streams and rank 0 releases them. Used to
// keep ranks from tearing the ring down while a peer is mid-collective.
func (g *Group) Barrier() error {
	if g.world == 1 {
		return nil
	}
	if err := g.errNow(); err != nil {
		return err
	}
	if g.rank == 0 {
		for r, c := range g.ctrls {
			if _, err := c.readFrame(tagBarrier, 0, 0); err != nil {
				countTimeout(deadlineBarrier, err)
				return g.fail(fmt.Errorf("distnet: barrier: rank %d did not arrive: %w", r+1, err))
			}
		}
		for r, c := range g.ctrls {
			if err := c.writeRaw(tagBarrier, 1, nil); err != nil {
				countTimeout(deadlineBarrier, err)
				return g.fail(fmt.Errorf("distnet: barrier: releasing rank %d: %w", r+1, err))
			}
		}
		return nil
	}
	if err := g.ctrl.writeRaw(tagBarrier, 0, nil); err != nil {
		countTimeout(deadlineBarrier, err)
		return g.fail(fmt.Errorf("distnet: barrier: %w", err))
	}
	if _, err := g.ctrl.readFrame(tagBarrier, 1, 0); err != nil {
		countTimeout(deadlineBarrier, err)
		return g.fail(fmt.Errorf("distnet: barrier: %w", err))
	}
	return nil
}

func setListenerDeadline(ln net.Listener, t time.Time) {
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(t)
	}
}

// dialRetry dials until success or the deadline: rank 0 may not be
// listening yet when a worker starts (the launcher forks all ranks at
// once), so refusals back off and retry instead of failing the join.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline expired")
			}
			return nil, fmt.Errorf("handshake timeout: %w", lastErr)
		}
		step := 250 * time.Millisecond
		if remaining < step {
			step = remaining
		}
		c, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
}

// --- handshake payload encodings -------------------------------------

func encodeHello(version, rank, world int, addr string) []byte {
	b := make([]byte, 12+len(addr))
	binary.LittleEndian.PutUint32(b[0:], uint32(version))
	binary.LittleEndian.PutUint32(b[4:], uint32(rank))
	binary.LittleEndian.PutUint32(b[8:], uint32(world))
	copy(b[12:], addr)
	return b
}

func parseHello(b []byte) (version, rank, world int, addr string, err error) {
	if len(b) < 12 {
		return 0, 0, 0, "", fmt.Errorf("distnet: short hello (%d bytes)", len(b))
	}
	return int(binary.LittleEndian.Uint32(b[0:])),
		int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:])),
		string(b[12:]), nil
}

func encodeTable(addrs []string) []byte {
	n := 4
	for _, a := range addrs {
		n += 4 + len(a)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(addrs)))
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a)))
		b = append(b, a...)
	}
	return b
}

func decodeTable(b []byte, world int) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("distnet: short address table")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != world {
		return nil, fmt.Errorf("distnet: address table holds %d ranks, want %d", n, world)
	}
	b = b[4:]
	addrs := make([]string, n)
	for i := range addrs {
		if len(b) < 4 {
			return nil, fmt.Errorf("distnet: truncated address table")
		}
		l := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < l {
			return nil, fmt.Errorf("distnet: truncated address table")
		}
		addrs[i] = string(b[:l])
		b = b[l:]
	}
	return addrs, nil
}
