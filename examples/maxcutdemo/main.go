// Max-Cut demo: the problem every competitor chip in the paper's
// Table III solves. A VLSI-style netlist is bipartitioned to maximize
// the weight of nets crossing the cut (equivalently: min-cut's
// complement), using the same Ising substrate as the TSP annealer.
// The example also prints the spin-count comparison that motivates the
// paper's functionally normalized Table III metrics: Max-Cut needs N
// spins where TSP needs N².
//
//	go run ./examples/maxcutdemo
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"cimsa/internal/anneal"
	"cimsa/internal/maxcut"
	"cimsa/internal/ppa"
	"cimsa/internal/serve"
)

func main() {
	// A 512-vertex instance — the same spin budget as STATICA, the
	// largest-spin single-chip design in Table III.
	const vertices = 512
	g := maxcut.Random(vertices, 0.05, 13)
	fmt.Printf("netlist: %d cells, %d nets, total net weight %.0f\n",
		g.N, len(g.Edges), g.TotalWeight())

	// Two algorithm families from the paper's Table III competitors,
	// both running on the same Ising substrate:
	//   - sequential Metropolis annealing (the classical reference)
	//   - stochastic cellular automata (STATICA's all-spins-at-once rule)
	res, err := maxcut.Solve(g, 400, 1)
	if err != nil {
		log.Fatal(err)
	}
	m, err := g.ToIsing()
	if err != nil {
		log.Fatal(err)
	}
	sca, err := anneal.SCA(m, anneal.SCAOptions{Steps: 400, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %10s %10s\n", "algorithm", "cut", "of total")
	for _, row := range []struct {
		name string
		cut  float64
	}{
		{"Metropolis annealing", res.Cut},
		{"stochastic cellular automata", g.CutValue(sca.Spins)},
	} {
		fmt.Printf("%-34s %10.0f %9.1f%%\n", row.name, row.cut, 100*row.cut/g.TotalWeight())
	}
	left, right := 0, 0
	for _, s := range res.Assign {
		if s > 0 {
			left++
		} else {
			right++
		}
	}
	fmt.Printf("Metropolis partition: %d / %d cells\n\n", left, right)

	// The Table III normalization argument in one table: spins needed by
	// Max-Cut (N) versus TSP (N²) at the same problem size.
	fmt.Println("why Table III normalizes by functional weight bits:")
	fmt.Printf("%10s %14s %18s\n", "N", "Max-Cut spins", "TSP spins (N²)")
	for _, n := range []int{512, 2048, 85900} {
		fmt.Printf("%10d %14d %18.3g\n", n, n, ppa.FunctionalSpins(n))
	}
	fmt.Println()

	// The same job through the cimserve job API: an in-process server,
	// the JSON submit payload, and a check that the served cut is
	// bit-identical to the library call above — the registry adds a
	// service boundary, not a different solver.
	servedThroughAPI(res.Cut)
}

// servedThroughAPI submits the demo's Max-Cut instance to an
// in-process cimserve HTTP server and verifies the result matches the
// direct maxcut.Solve call.
func servedThroughAPI(directCut float64) {
	sched := serve.NewScheduler(serve.Config{MaxConcurrent: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	}()
	ts := httptest.NewServer(serve.NewServer(sched).Handler())
	defer ts.Close()

	body := `{"maxcut":{"name":"demo-netlist","generate":{"n":512,"density":0.05,"seed":13},"sweeps":400,"seed":1}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted %s job %s to %s\n", st.Problem, st.ID, ts.URL)

	job, ok := sched.Get(st.ID)
	if !ok {
		log.Fatalf("job %s vanished after submit", st.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		log.Fatal("served job did not finish")
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		log.Fatal(err)
	}
	var served struct {
		serve.Status
		Report maxcut.Result `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if served.Report.Cut != directCut {
		log.Fatalf("served cut %.0f != direct library cut %.0f", served.Report.Cut, directCut)
	}
	fmt.Printf("served cut %.0f over HTTP — bit-identical to the direct maxcut.Solve call\n",
		served.Report.Cut)
}
