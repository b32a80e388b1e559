package tsplib

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTour emits a visiting order in TSPLIB95 .tour format (TYPE TOUR,
// TOUR_SECTION with 1-indexed city ids terminated by -1).
func WriteTour(w io.Writer, name string, order []int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\n", name)
	fmt.Fprintf(bw, "TYPE : TOUR\n")
	fmt.Fprintf(bw, "DIMENSION : %d\n", len(order))
	fmt.Fprintf(bw, "TOUR_SECTION\n")
	for _, city := range order {
		fmt.Fprintf(bw, "%d\n", city+1)
	}
	fmt.Fprintf(bw, "-1\nEOF\n")
	return bw.Flush()
}
