package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint format: a little-endian binary stream with a magic header,
// the model configuration, and every parameter tensor (name, shape,
// float32 data) in Params() order. The tied MLM decoder weight is stored
// once, under the embedding.
const (
	checkpointMagic   = 0x42455254 // "BERT"
	checkpointVersion = 1
)

// Save writes the model's configuration and parameters to w.
func (m *BERT) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, m.Config); err != nil {
		return err
	}
	for _, p := range m.Params() {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := binary.Write(bw, binary.LittleEndian, int32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, int32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.Value.Data() {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxCheckpointParams bounds the model Load will build from a checkpoint
// header: 2³¹ parameters (8 GiB of float32), past Megatron-BERT. The
// header is 40 bytes that nothing vouches for, and Load allocates the
// whole model before it reads a parameter byte — a declared d_model of 2³⁰
// would otherwise end the process with an unrecoverable out-of-memory.
const maxCheckpointParams = 1 << 31

// Load constructs a model from a checkpoint written by Save. The
// checkpoint's configuration takes precedence; parameter names and shapes
// are verified against the freshly built model. A configuration that does
// not validate or declares more than maxCheckpointParams parameters is
// refused before anything is allocated.
func Load(r io.Reader) (*BERT, error) {
	br := bufio.NewReader(r)
	cfg, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model: checkpoint config invalid: %w", err)
	}
	if _, ok := cfg.paramCountWithin(maxCheckpointParams); !ok {
		return nil, fmt.Errorf("model: checkpoint declares more than %d parameters (%+v)", maxCheckpointParams, cfg)
	}
	m, err := New(cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := m.readParams(br); err != nil {
		return nil, err
	}
	return m, nil
}

// readParams reads the parameter stream of a checkpoint into the model's
// existing tensors, verifying names and shapes in Params() order.
func (m *BERT) readParams(br *bufio.Reader) error {
	for _, p := range m.Params() {
		name, err := readString(br)
		if err != nil {
			return fmt.Errorf("model: reading parameter name: %w", err)
		}
		if name != p.Name {
			return fmt.Errorf("model: checkpoint parameter %q, want %q (order mismatch)", name, p.Name)
		}
		var rank int32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != p.Value.Rank() {
			return fmt.Errorf("model: %s rank %d, want %d", name, rank, p.Value.Rank())
		}
		for i := 0; i < int(rank); i++ {
			var d int32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != p.Value.Dim(i) {
				return fmt.Errorf("model: %s dim %d is %d, want %d", name, i, d, p.Value.Dim(i))
			}
		}
		if err := binary.Read(br, binary.LittleEndian, p.Value.Data()); err != nil {
			return fmt.Errorf("model: reading %s data: %w", name, err)
		}
		// Invalidate any packed-weight panels built from the initial
		// values New drew: they must not outlive the loaded weights.
		p.BumpGen()
	}
	return nil
}

func writeHeader(w io.Writer, cfg Config) error {
	var flags int32
	if cfg.Causal {
		flags |= 1
	}
	fields := []int32{
		checkpointMagic, checkpointVersion,
		int32(cfg.Vocab), int32(cfg.MaxPos), int32(cfg.NumLayers),
		int32(cfg.DModel), int32(cfg.Heads), int32(cfg.DFF), flags,
	}
	for _, f := range fields {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, math.Float32bits(cfg.DropProb))
}

func readHeader(r io.Reader) (Config, error) {
	var fields [9]int32
	for i := range fields {
		if err := binary.Read(r, binary.LittleEndian, &fields[i]); err != nil {
			return Config{}, fmt.Errorf("model: reading checkpoint header: %w", err)
		}
	}
	if fields[0] != checkpointMagic {
		return Config{}, fmt.Errorf("model: not a checkpoint (magic %#x)", fields[0])
	}
	if fields[1] != checkpointVersion {
		return Config{}, fmt.Errorf("model: unsupported checkpoint version %d", fields[1])
	}
	// Bit 0 (Causal) is the only flag Save writes: a file with any other
	// bit set could not be written back byte for byte, so it is refused.
	if fields[8]&^1 != 0 {
		return Config{}, fmt.Errorf("model: unknown checkpoint flags %#x", fields[8])
	}
	var dropBits uint32
	if err := binary.Read(r, binary.LittleEndian, &dropBits); err != nil {
		return Config{}, err
	}
	return Config{
		Vocab:     int(fields[2]),
		MaxPos:    int(fields[3]),
		NumLayers: int(fields[4]),
		DModel:    int(fields[5]),
		Heads:     int(fields[6]),
		DFF:       int(fields[7]),
		Causal:    fields[8]&1 != 0,
		DropProb:  math.Float32frombits(dropBits),
	}, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("model: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
