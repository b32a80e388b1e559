package fixed

import (
	"math"
	"testing"
	"testing/quick"

	"cimsa/internal/rng"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	q := NewQuantizer(1000)
	r := rng.New(1)
	f := func(raw uint16) bool {
		w := float64(raw%1000) * (0.5 + r.Float64())
		if w > 1000 {
			w = 1000
		}
		// In range, a code is off by at most half an LSB.
		back := float64(q.Quantize(w)) * q.Scale
		return math.Abs(back-w) <= q.Scale/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeEndpoints(t *testing.T) {
	q := NewQuantizer(255)
	if q.Quantize(0) != 0 {
		t.Fatal("zero not mapped to code 0")
	}
	if q.Quantize(255) != MaxCode {
		t.Fatal("full scale not mapped to MaxCode")
	}
	if q.Quantize(1e9) != MaxCode {
		t.Fatal("overflow did not saturate")
	}
}

func TestQuantizeMonotone(t *testing.T) {
	q := NewQuantizer(500)
	prev := uint8(0)
	for w := 0.0; w <= 500; w += 0.25 {
		code := q.Quantize(w)
		if code < prev {
			t.Fatalf("quantizer not monotone at %v", w)
		}
		prev = code
	}
}

func TestQuantizePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight accepted")
		}
	}()
	NewQuantizer(10).Quantize(-1)
}

func TestDegenerateQuantizer(t *testing.T) {
	q := NewQuantizer(0)
	if q.Quantize(123) != 0 {
		t.Fatal("degenerate quantizer produced nonzero code")
	}
}

func TestBitAccessors(t *testing.T) {
	code := uint8(0b10110010)
	wantBits := []uint8{0, 1, 0, 0, 1, 1, 0, 1}
	for b, want := range wantBits {
		if got := Bit(code, b); got != want {
			t.Fatalf("bit %d of %08b = %d, want %d", b, code, got, want)
		}
	}
}

func TestSetBit(t *testing.T) {
	f := func(codeRaw, bRaw, vRaw uint8) bool {
		b := int(bRaw % Bits)
		v := vRaw % 2
		out := SetBit(codeRaw, b, v)
		if Bit(out, b) != v {
			return false
		}
		// Other bits unchanged.
		for ob := 0; ob < Bits; ob++ {
			if ob != b && Bit(out, ob) != Bit(codeRaw, ob) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsReconstructCode(t *testing.T) {
	f := func(code uint8) bool {
		var sum int
		for b := 0; b < Bits; b++ {
			sum += int(Bit(code, b)) << uint(b)
		}
		return sum == int(code)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
