package tsplib

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse checks the TSPLIB parser never panics and that anything it
// accepts round-trips through Write.
func FuzzParse(f *testing.F) {
	f.Add(sampleTSP)
	f.Add("NAME: x\nTYPE: TSP\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n")
	f.Add("TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : GEO\nNODE_COORD_SECTION\n1 40.1 -74.5\n2 33.2 -112.1\n3 41.9 -87.6\nEOF\n")
	f.Add("garbage\n")
	f.Add("")
	// Hostile declarations the hardened parser must reject cheaply: the
	// solve service feeds this parser raw request bodies.
	f.Add("TYPE : TSP\nDIMENSION : 999999999999999999\nNODE_COORD_SECTION\n1 0 0\nEOF\n")
	f.Add("TYPE : TSP\nDIMENSION : -7\nNODE_COORD_SECTION\n1 0 0\nEOF\n")
	f.Add("TYPE : TSP\nDIMENSION : 0\nEOF\n")
	f.Add("TYPE : TSP\nDIMENSION : 2\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n")
	f.Add("TYPE : TSP\nNODE_COORD_SECTION\n0 0 0\n1 1 0\n2 0 1\nEOF\n")
	f.Add("TYPE : TSP\nDIMENSION : 99999\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 1 0\nEOF\n")
	// Coordinates at or past float64's range: a tour over them
	// overflows, so Validate (run by Parse) must refuse them.
	for _, x := range []string{"1e308", "-1e308", "+Inf", "-Inf"} {
		f.Add("NAME : big\nTYPE : TSP\nDIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 " + x + " 0\n3 0 1\n4 1 1\nEOF\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		in, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted instances must be valid and re-serializable.
		if err := in.Validate(); err != nil {
			t.Fatalf("Parse accepted invalid instance: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("Write failed on parsed instance: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
		if back.N() != in.N() {
			t.Fatalf("round trip changed city count %d -> %d", in.N(), back.N())
		}
	})
}

// FuzzParseTour checks the .tour parser never panics and that accepted
// orders contain no duplicates.
func FuzzParseTour(f *testing.F) {
	f.Add("TYPE : TOUR\nTOUR_SECTION\n1\n2\n3\n-1\nEOF\n")
	f.Add("TOUR_SECTION\n2 1\n-1\n")
	f.Add("-1")
	f.Fuzz(func(t *testing.T, src string) {
		order, err := ParseTour(strings.NewReader(src))
		if err != nil {
			return
		}
		seen := map[int]bool{}
		for _, c := range order {
			if c < 0 {
				t.Fatalf("negative city %d accepted", c)
			}
			if seen[c] {
				t.Fatalf("duplicate city %d accepted", c)
			}
			seen[c] = true
		}
	})
}
