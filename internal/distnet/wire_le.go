//go:build !(mips || mips64 || ppc64 || s390x)

package distnet

import "io"

// On a little-endian host a float32 slice's memory is its wire encoding.

func (c *conn) wireBytes(data []float32) []byte { return floatBytes(data) }

func readFloats(r io.Reader, dst []float32) error {
	_, err := io.ReadFull(r, floatBytes(dst))
	return err
}
