package main

import (
	"encoding/json"
	"math/rand/v2"

	"cimsa"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/problem/maxcutprob"
	"cimsa/internal/problem/tspprob"
)

// spec is one request body for POST /v1/jobs.
type spec struct {
	problem string
	body    []byte
}

type kind int

const (
	tsp1k kind = iota
	tsp3k
	maxcutJob
	isingJob
	quboJob
)

// deck is the serve-mixed traffic mix: 40% tsp (half at 1,000 cities,
// solved sequentially under Workers=auto, half at 3,000, solved pooled),
// 20% each maxcut, ising and qubo. A client deals shuffled decks, so any
// ten consecutive requests hold the exact mix and throughput does not
// drift with how a seed happens to draw problem types.
var deck = []kind{tsp1k, tsp3k, tsp1k, tsp3k, maxcutJob, maxcutJob, isingJob, isingJob, quboJob, quboJob}

// Stream ids beside the per-client ones (0, 1, ...), so warm-up and
// cache-hot specs never repeat a client's.
const (
	warmStream  = 100
	cacheStream = 200
)

// specStream deals request bodies derived from (seed, stream) alone:
// the same seed gives the same sequence, and every spec draws fresh
// instance and solve seeds, so no two requests repeat.
type specStream struct {
	rng  *rand.Rand
	hand []kind
}

func newSpecStream(seed, stream uint64) *specStream {
	return &specStream{rng: rand.New(rand.NewPCG(seed, stream))}
}

func (s *specStream) next() spec {
	if len(s.hand) == 0 {
		s.hand = append(s.hand, deck...)
		s.rng.Shuffle(len(s.hand), func(i, j int) { s.hand[i], s.hand[j] = s.hand[j], s.hand[i] })
	}
	k := s.hand[0]
	s.hand = s.hand[1:]
	return s.make(k)
}

func (s *specStream) make(k kind) spec {
	inst, seed := s.rng.Uint64(), s.rng.Uint64()
	var name string
	var payload any
	switch k {
	case tsp1k, tsp3k:
		n := 1000
		if k == tsp3k {
			n = 3000
		}
		name = tspprob.Name
		payload = tspprob.Spec{
			Generate: &tspprob.GenerateSpec{Name: "pcb-bench", N: n, Seed: inst},
			Options:  tspprob.OptionsSpec{Seed: seed, Workers: cimsa.WorkersAuto},
		}
	case maxcutJob:
		name = maxcutprob.Name
		payload = maxcutprob.Spec{Generate: &maxcutprob.GenerateSpec{N: 512, Density: 0.02, Seed: inst}, Sweeps: 400, Seed: seed}
	case isingJob:
		name = isingprob.Name
		payload = isingprob.Spec{Generate: &isingprob.GenerateSpec{N: 256, Density: 0.1, Seed: inst}, Sweeps: 200, Seed: seed}
	case quboJob:
		name = isingprob.QUBOName
		payload = isingprob.QUBOSpec{Generate: &isingprob.GenerateSpec{N: 128, Density: 0.2, Seed: inst}, Sweeps: 200, Seed: seed}
	}
	body, err := json.Marshal(map[string]any{name: payload})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return spec{problem: name, body: body}
}

// warmSpecs are serve-mixed's warm-up requests, one per kind; the
// direct layer measurements reuse them.
func warmSpecs(seed uint64) []spec {
	s := newSpecStream(seed, warmStream)
	return []spec{s.make(tsp1k), s.make(tsp3k), s.make(maxcutJob), s.make(isingJob), s.make(quboJob)}
}

// cacheSpecs are serve-cache-hot's eight fixed requests, two per problem
// type, submitted round-robin.
func cacheSpecs(seed uint64) []spec {
	s := newSpecStream(seed, cacheStream)
	return []spec{
		s.make(tsp1k), s.make(maxcutJob), s.make(isingJob), s.make(quboJob),
		s.make(tsp3k), s.make(maxcutJob), s.make(isingJob), s.make(quboJob),
	}
}
