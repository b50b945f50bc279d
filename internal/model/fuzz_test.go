package model

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// fuzzConfig is the smallest configuration Validate accepts, with the
// header's flag set: its checkpoint is a couple of kilobytes.
var fuzzConfig = Config{Vocab: 8, MaxPos: 4, NumLayers: 1, DModel: 4, Heads: 2, DFF: 8, DropProb: 0.1, Causal: true}

// fuzzMaxParams is where FuzzLoad stops following a well-formed header:
// building a large model is Load working, and only costs the fuzzer memory.
const fuzzMaxParams = 1 << 20

// checkpointSections returns a valid checkpoint of m, the offset of every
// field in it — each header field, then per parameter its name length,
// name, rank, each dim, the start and the middle of its data — and where
// each parameter's record starts (plus the end of the last).
func checkpointSections(t testing.TB, m *BERT) (data []byte, offs, records []int) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 40; off += 4 {
		offs = append(offs, off)
	}
	off := 40
	for _, p := range m.Params() {
		records = append(records, off)
		offs = append(offs, off, off+4) // name length, name
		off += 4 + len(p.Name)
		offs = append(offs, off) // rank
		off += 4
		for range p.Value.Shape() {
			offs = append(offs, off)
			off += 4
		}
		n := 4 * len(p.Value.Data())
		offs = append(offs, off, off+n/2)
		off += n
	}
	if off != buf.Len() {
		t.Fatalf("checkpoint layout: walked %d bytes, Save wrote %d", off, buf.Len())
	}
	return buf.Bytes(), offs, append(records, off)
}

// withInt32 returns a copy of b with the little-endian int32 at off set.
func withInt32(b []byte, off int, v int32) []byte {
	c := bytes.Clone(b)
	binary.LittleEndian.PutUint32(c[off:], uint32(v))
	return c
}

// FuzzLoad fuzzes the third place external bytes enter the process: a
// checkpoint, through Load.
// Whatever the bytes, the outcome is an error, or a model whose Save
// writes exactly the bytes that were read (trailing bytes aside) — never a
// panic, and never an allocation a 40-byte header alone asked for.
func FuzzLoad(f *testing.F) {
	base, err := New(fuzzConfig, 1)
	if err != nil {
		f.Fatal(err)
	}
	valid, offs, records := checkpointSections(f, base)
	f.Add(valid)
	for _, off := range offs { // truncated at every section, and just past it
		f.Add(valid[:off])
		f.Add(valid[:off+1])
	}
	f.Add(withInt32(valid, 0, 0x42455255))  // bad magic
	f.Add(withInt32(valid, 4, 2))           // bad version
	f.Add(withInt32(valid, 32, 3))          // unknown flag bit 1
	f.Add(withInt32(valid, 32, 4))          // unknown flag bit 2
	f.Add(withInt32(valid, 36, 0x7fc00000)) // NaN dropout
	f.Add(withInt32(valid, 36, -1<<31))     // -0 dropout
	for _, field := range []struct {
		off int
		v   int32
	}{
		{20, 1 << 30},   // d_model 2^30
		{8, 1<<31 - 1},  // vocab
		{24, 1 << 30},   // heads = d_model
		{28, 1<<31 - 1}, // d_ff
		{16, 1<<31 - 1}, // layers
		{20, -4},        // negative d_model
		{8, -8},         // negative vocab
		{28, 0},         // zero d_ff
	} {
		f.Add(withInt32(valid, field.off, field.v))
	}
	f.Add(withInt32(withInt32(valid, 20, 1<<30), 24, 1<<30)) // d_model 2^30 as 2^30 heads: passes Validate
	// Parameter 0 (name length at offs[10], name, rank, dims, ...).
	rank := offs[12]
	f.Add(withInt32(valid, rank, 1))      // rank mismatch
	f.Add(withInt32(valid, rank, -1))     // negative rank
	f.Add(withInt32(valid, rank+4, 9))    // dim mismatch
	f.Add(withInt32(valid, rank+4, -8))   // negative dim
	f.Add(withInt32(valid, offs[10], -1)) // negative name length
	f.Add(withInt32(valid, offs[10], 1<<30))
	// Two parameters' records in each other's place.
	r0, r1, r2 := records[0], records[1], records[2]
	swapped := append(bytes.Clone(valid[:r0]), valid[r1:r2]...)
	swapped = append(append(swapped, valid[r0:r1]...), valid[r2:]...)
	f.Add(swapped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if cfg, err := readHeader(bytes.NewReader(data)); err == nil && cfg.Validate() == nil {
			if n, ok := cfg.paramCountWithin(maxCheckpointParams); ok && n > fuzzMaxParams {
				t.Skipf("well-formed header of a %d-parameter model", n)
			}
		}
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("Save after a successful Load: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("Load accepted %d bytes that do not round-trip: Save writes %d", len(data), out.Len())
		}
	})
}

// TestLoadRefusesHugeHeaderBeforeAllocating: a header declaring d_model =
// 2^30 (as 2^30 heads of width one, so it validates) is refused by Load
// with an error, where it used to reach New and end the process with an
// out-of-memory fatal error; the call allocates next to nothing.
func TestLoadRefusesHugeHeaderBeforeAllocating(t *testing.T) {
	base, err := New(fuzzConfig, 1)
	if err != nil {
		t.Fatal(err)
	}
	valid, _, _ := checkpointSections(t, base)
	huge := withInt32(withInt32(valid, 20, 1<<30), 24, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a header declaring d_model = 2^30")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("Load allocated %d bytes before refusing the header", b)
	}
	t.Log(err)
}
