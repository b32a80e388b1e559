// Package fixed implements the 8-bit weight quantization used by the
// digital CIM arrays. Each weight window is quantized against its own
// full-scale value, matching the paper's choice of 8-bit weights "to
// provide enough precision for weight representation and sufficient
// granularity for noise control".
package fixed

import (
	"fmt"
	"math"
)

// Bits is the weight precision of the CIM arrays.
const Bits = 8

// MaxCode is the largest quantized weight value.
const MaxCode = 1<<Bits - 1

// Quantizer maps non-negative float weights to 8-bit codes with a shared
// scale: code = round(w / Scale), w ≈ code * Scale.
type Quantizer struct {
	// Scale is the weight value of one LSB.
	Scale float64
}

// NewQuantizer builds a quantizer whose full-scale code corresponds to
// maxValue. A zero or negative maxValue yields a degenerate quantizer
// that maps everything to code 0.
func NewQuantizer(maxValue float64) Quantizer {
	if maxValue <= 0 {
		return Quantizer{Scale: 0}
	}
	return Quantizer{Scale: maxValue / MaxCode}
}

// Quantize converts a weight to its 8-bit code, saturating at MaxCode.
// Negative weights are a caller error (TSP distances are non-negative).
func (q Quantizer) Quantize(w float64) uint8 {
	if w < 0 {
		panic(fmt.Sprintf("fixed: negative weight %v", w))
	}
	if q.Scale == 0 {
		return 0
	}
	code := math.Round(w / q.Scale)
	if code > MaxCode {
		return MaxCode
	}
	return uint8(code)
}

// Bit returns bit plane b (0 = LSB) of the code.
func Bit(code uint8, b int) uint8 {
	return (code >> uint(b)) & 1
}

// SetBit returns code with bit plane b forced to v (0 or 1).
func SetBit(code uint8, b int, v uint8) uint8 {
	mask := uint8(1) << uint(b)
	if v != 0 {
		return code | mask
	}
	return code &^ mask
}
