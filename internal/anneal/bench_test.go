package anneal_test

import (
	"context"
	"testing"

	"cimsa/internal/anneal"
	"cimsa/internal/ising"
	"cimsa/internal/maxcut"
	"cimsa/internal/problem"
	"cimsa/internal/problem/isingprob"
)

// The benchmark models are serve-mixed's spin shapes: maxcut n 512 at
// density 0.02, ising n 256 at 0.1 and qubo n 128 at 0.2.

func benchMaxCutModel(b *testing.B) *ising.Model {
	m, err := maxcut.Random(512, 0.02, 1).ToIsing()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchIsingModel(b *testing.B) *ising.Model {
	task, err := isingprob.TaskFromSpec(&isingprob.Spec{Generate: &isingprob.GenerateSpec{N: 256, Density: 0.1, Seed: 1}}, problem.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return task.Model()
}

func benchQUBOModel(b *testing.B) *ising.Model {
	task, err := isingprob.QUBOTaskFromSpec(&isingprob.QUBOSpec{Generate: &isingprob.GenerateSpec{N: 128, Density: 0.2, Seed: 1}}, problem.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return task.Model()
}

// benchMetropolis times one full anneal per op (compile included, as
// in a served solve) and reports the cost per proposal.
func benchMetropolis(b *testing.B, m *ising.Model, opts anneal.Options) {
	spins := make([]int8, m.N)
	proposed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(spins, anneal.RandomSpins(m.N, uint64(i)))
		opts.Seed = uint64(i)
		res, err := anneal.IsingContext(context.Background(), m, spins, opts)
		if err != nil {
			b.Fatal(err)
		}
		proposed += res.Proposed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(proposed), "ns/proposal")
}

func BenchmarkMetropolisMaxCut(b *testing.B) {
	// maxcut.Solve's schedule for weights in [0.5, 1.5).
	benchMetropolis(b, benchMaxCutModel(b), anneal.Options{Sweeps: 400, Schedule: anneal.Geometric{Start: 3, End: 0.015}})
}

func BenchmarkMetropolisIsing(b *testing.B) {
	benchMetropolis(b, benchIsingModel(b), anneal.Options{Sweeps: 200})
}

func BenchmarkMetropolisQUBO(b *testing.B) {
	benchMetropolis(b, benchQUBOModel(b), anneal.Options{Sweeps: 200})
}

// BenchmarkSCA times the synchronous backend at the ising shape and
// the service's default step count.
func BenchmarkSCA(b *testing.B) {
	m := benchIsingModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anneal.SCA(m, anneal.SCAOptions{Steps: 500, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
