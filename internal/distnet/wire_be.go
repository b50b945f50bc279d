//go:build mips || mips64 || ppc64 || s390x

package distnet

import (
	"encoding/binary"
	"io"
	"math"
)

// On a big-endian host data frames are encoded on send, decoded on receive.

func (c *conn) wireBytes(data []float32) []byte {
	buf := c.grow(4 * len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func readFloats(r io.Reader, dst []float32) error {
	b := floatBytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}
