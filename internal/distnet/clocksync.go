package distnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"demystbert/internal/trace"
)

// Clock alignment and trace-shard transport over the control streams.
// Worker processes stamp their spans with their own wall clocks; to
// merge all ranks onto one timeline, each worker measures its offset
// from rank 0 with an NTP-style ping-pong at handshake time (after Join,
// before training), and ships its span shard — offset attached — back to
// rank 0 at end of run, where trace.Merge aligns and interleaves them.

// DefaultClockRounds is the ping-pong count per worker; the minimum-RTT
// sample wins, so a handful of exchanges rejects scheduler noise.
const DefaultClockRounds = 8

// ClockSync measures this rank's clock offset relative to rank 0
// (local - rank0; zero on rank 0 and at world 1). Collective: every
// rank must call it at the same protocol point. Workers are serviced in
// rank order, one full ping-pong sequence each, so the exchanges never
// interleave and the RTTs stay clean.
func (g *Group) ClockSync(rounds int) (time.Duration, error) {
	if g.world == 1 {
		return 0, nil
	}
	if err := g.errNow(); err != nil {
		return 0, err
	}
	if rounds < 1 {
		rounds = DefaultClockRounds
	}
	if g.rank == 0 {
		var t2 [8]byte
		for r, c := range g.ctrls {
			for i := 0; i < rounds; i++ {
				if _, err := c.readFrame(tagClock, uint32(i), 0); err != nil {
					countTimeout(deadlineHandshake, err)
					return 0, g.fail(fmt.Errorf("distnet: clock sync with rank %d: %w", r+1, err))
				}
				binary.LittleEndian.PutUint64(t2[:], uint64(time.Now().UnixNano()))
				if err := c.writeRaw(tagClock, uint32(i), t2[:]); err != nil {
					countTimeout(deadlineHandshake, err)
					return 0, g.fail(fmt.Errorf("distnet: clock sync reply to rank %d: %w", r+1, err))
				}
			}
		}
		return 0, nil
	}
	samples := make([]trace.OffsetSample, 0, rounds)
	for i := 0; i < rounds; i++ {
		t1 := time.Now()
		if err := g.ctrl.writeRaw(tagClock, uint32(i), nil); err != nil {
			countTimeout(deadlineHandshake, err)
			return 0, g.fail(fmt.Errorf("distnet: clock sync ping: %w", err))
		}
		payload, err := g.ctrl.readFrame(tagClock, uint32(i), 2) // 8 bytes = 2 float32 elems
		if err != nil {
			countTimeout(deadlineHandshake, err)
			return 0, g.fail(fmt.Errorf("distnet: clock sync pong: %w", err))
		}
		t3 := time.Now()
		t2 := time.Unix(0, int64(binary.LittleEndian.Uint64(payload)))
		samples = append(samples, trace.NewOffsetSample(t1, t3, t2))
	}
	return trace.EstimateOffset(samples), nil
}

// SendTraceShard ships this worker's span shard to rank 0. Worker-only;
// rank 0 collects with GatherTraceShards at the same protocol point.
func (g *Group) SendTraceShard(sh trace.Shard) error {
	if g.world == 1 || g.rank == 0 {
		return nil
	}
	payload, err := json.Marshal(sh)
	if err != nil {
		return fmt.Errorf("distnet: encoding trace shard: %w", err)
	}
	if err := g.ctrl.writeRaw(tagShard, 0, payload); err != nil {
		return g.fail(fmt.Errorf("distnet: sending trace shard: %w", err))
	}
	return nil
}

// GatherTraceShards collects every worker's shard (rank order) and
// returns them with rank 0's own shard first. Rank-0-only.
func (g *Group) GatherTraceShards(own trace.Shard) ([]trace.Shard, error) {
	shards := []trace.Shard{own}
	if g.world == 1 {
		return shards, nil
	}
	if g.rank != 0 {
		return nil, fmt.Errorf("distnet: GatherTraceShards on rank %d", g.rank)
	}
	for r, c := range g.ctrls {
		payload, tag, _, err := c.readAny(maxShardFrame)
		if err != nil {
			return nil, g.fail(fmt.Errorf("distnet: trace shard from rank %d: %w", r+1, err))
		}
		if tag != tagShard {
			return nil, g.fail(fmt.Errorf("distnet: expected trace shard from rank %d, got frame tag %#x", r+1, tag))
		}
		var sh trace.Shard
		if err := json.Unmarshal(payload, &sh); err != nil {
			return nil, g.fail(fmt.Errorf("distnet: decoding trace shard from rank %d: %w", r+1, err))
		}
		if sh.Rank != r+1 {
			return nil, g.fail(fmt.Errorf("distnet: trace shard claims rank %d, conn belongs to rank %d", sh.Rank, r+1))
		}
		shards = append(shards, sh)
	}
	return shards, nil
}
