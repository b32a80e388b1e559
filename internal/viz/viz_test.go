package viz

import (
	"bytes"
	"strings"
	"testing"

	"cimsa/internal/heuristics"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

func TestWriteSVGBasic(t *testing.T) {
	in := tsplib.Generate("viz", 50, tsplib.StyleUniform, 1)
	tr := heuristics.SpaceFilling(in)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, in, tr, Options{ShowCities: true, Title: "viz test"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<path", "circle", "viz test"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// One path vertex per city plus the close command.
	if got := strings.Count(out, " L"); got != in.N()-1 {
		t.Errorf("path has %d line segments, want %d", got, in.N()-1)
	}
	if got := strings.Count(out, "<circle"); got != in.N() {
		t.Errorf("%d city dots, want %d", got, in.N())
	}
}

func TestWriteSVGNoCities(t *testing.T) {
	in := tsplib.Generate("viz2", 30, tsplib.StyleClustered, 2)
	tr := heuristics.SpaceFilling(in)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, in, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<circle") {
		t.Error("city dots drawn despite ShowCities=false")
	}
	if strings.Contains(buf.String(), "<text") {
		t.Error("title drawn despite empty Title")
	}
}

func TestWriteSVGRejectsInvalidTour(t *testing.T) {
	in := tsplib.Generate("viz3", 10, tsplib.StyleUniform, 3)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, in, tour.Tour{0, 1, 1}, Options{}); err == nil {
		t.Fatal("invalid tour accepted")
	}
}

func TestWriteSVGDegenerateGeometry(t *testing.T) {
	// Collinear cities: zero height must not divide by zero.
	gen := tsplib.Generate("l", 5, tsplib.StyleUniform, 4)
	in := &tsplib.Instance{Name: "line", Metric: gen.Metric, Cities: gen.Cities}
	for i := range in.Cities {
		in.Cities[i].Y = 7
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, in, tour.New(5), Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG produced")
	}
}
