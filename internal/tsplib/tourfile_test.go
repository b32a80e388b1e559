package tsplib

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// ParseTour reads a TSPLIB95 .tour file and returns the 0-indexed
// visiting order. DIMENSION, when present, is validated against the
// entry count. It is the oracle WriteTour's output is read back with.
func ParseTour(r io.Reader) ([]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	declaredDim := -1
	inTour := false
	var order []int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case upper == "EOF":
			inTour = false
		case inTour:
			for _, field := range strings.Fields(line) {
				id, err := strconv.Atoi(field)
				if err != nil {
					return nil, fmt.Errorf("tsplib: bad tour entry %q: %v", field, err)
				}
				if id == -1 {
					inTour = false
					break
				}
				if id < 1 {
					return nil, fmt.Errorf("tsplib: tour entry %d out of range", id)
				}
				order = append(order, id-1)
			}
		case upper == "TOUR_SECTION":
			inTour = true
		case strings.HasPrefix(upper, "DIMENSION"):
			d, err := strconv.Atoi(keywordValue(line))
			if err != nil {
				return nil, fmt.Errorf("tsplib: bad DIMENSION: %v", err)
			}
			declaredDim = d
		case strings.HasPrefix(upper, "TYPE"):
			if v := strings.ToUpper(keywordValue(line)); v != "TOUR" {
				return nil, fmt.Errorf("tsplib: tour file has TYPE %q", v)
			}
		default:
			// NAME, COMMENT, unknown keywords: ignored.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tsplib: read: %w", err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("tsplib: no TOUR_SECTION data")
	}
	if declaredDim >= 0 && declaredDim != len(order) {
		return nil, fmt.Errorf("tsplib: DIMENSION %d but %d tour entries", declaredDim, len(order))
	}
	seen := make(map[int]bool, len(order))
	for _, c := range order {
		if seen[c] {
			return nil, fmt.Errorf("tsplib: city %d appears twice in tour", c+1)
		}
		seen[c] = true
	}
	return order, nil
}

func TestTourRoundTrip(t *testing.T) {
	order := []int{3, 0, 2, 1, 4}
	var buf bytes.Buffer
	if err := WriteTour(&buf, "rt", order); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTour(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(order) {
		t.Fatalf("got %d entries", len(back))
	}
	for i := range order {
		if back[i] != order[i] {
			t.Fatalf("entry %d: %d != %d", i, back[i], order[i])
		}
	}
}

func TestTourFileFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTour(&buf, "fmt", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TYPE : TOUR", "DIMENSION : 2", "TOUR_SECTION", "-1", "EOF"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// 1-indexed ids.
	if !strings.Contains(out, "\n1\n2\n") {
		t.Errorf("ids not 1-indexed:\n%s", out)
	}
}

func TestParseTourErrors(t *testing.T) {
	cases := map[string]string{
		"wrong type":    "TYPE : TSP\nTOUR_SECTION\n1\n-1\nEOF\n",
		"dim mismatch":  "TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n1\n2\n-1\nEOF\n",
		"duplicate":     "TYPE : TOUR\nTOUR_SECTION\n1\n2\n1\n-1\nEOF\n",
		"zero id":       "TYPE : TOUR\nTOUR_SECTION\n0\n-1\nEOF\n",
		"no section":    "TYPE : TOUR\nDIMENSION : 2\nEOF\n",
		"garbage entry": "TYPE : TOUR\nTOUR_SECTION\none\n-1\nEOF\n",
	}
	for name, src := range cases {
		if _, err := ParseTour(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseTourMultiplePerLine(t *testing.T) {
	src := "TYPE : TOUR\nTOUR_SECTION\n1 2 3\n4 5 -1\nEOF\n"
	order, err := ParseTour(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Fatalf("parsed %v", order)
	}
}
