package tsplib

import (
	"fmt"
	"sort"
)

// Known describes a TSPLIB instance referenced by the paper, including
// the published best-known (optimal where proven) tour length and, where
// the paper quotes one, the Concorde CPU solve time in seconds.
//
// The module is offline, so the actual city coordinates are synthesized
// by Generate with a style inferred from the name; BestKnown refers to
// the *real* TSPLIB instance and is kept for documentation and for the
// speedup experiment's CPU-baseline constants. Solution-quality ratios in
// this repository are always computed against a classical reference
// solver run on the same synthetic coordinates (see package heuristics),
// never against BestKnown.
type Known struct {
	Name string
	// N is the number of cities.
	N int
	// BestKnown is the published best-known tour length of the real
	// TSPLIB instance (0 if not tracked).
	BestKnown float64
	// ConcordeSeconds is the CPU time the paper quotes from the Concorde
	// benchmark page (0 if the paper does not quote one).
	ConcordeSeconds float64
}

// Registry lists the instances in the paper's evaluation (§V, §VI),
// ordered by size, plus a few small classics used by unit tests.
var Registry = []Known{
	{Name: "berlin52", N: 52, BestKnown: 7542},
	{Name: "eil101", N: 101, BestKnown: 629},
	{Name: "pr152", N: 152, BestKnown: 73682},
	{Name: "pcb442", N: 442, BestKnown: 50778},
	{Name: "pcb1173", N: 1173, BestKnown: 56892},
	{Name: "pcb3038", N: 3038, BestKnown: 137694, ConcordeSeconds: 22 * 3600},
	{Name: "rl5915", N: 5915, BestKnown: 565530},
	{Name: "rl5934", N: 5934, BestKnown: 556045, ConcordeSeconds: 7 * 24 * 3600},
	{Name: "rl11849", N: 11849, BestKnown: 923288, ConcordeSeconds: 155 * 24 * 3600},
	{Name: "usa13509", N: 13509, BestKnown: 19982859},
	{Name: "brd14051", N: 14051, BestKnown: 469385},
	{Name: "d15112", N: 15112, BestKnown: 1573084},
	{Name: "d18512", N: 18512, BestKnown: 645238},
	{Name: "pla33810", N: 33810, BestKnown: 66048945},
	{Name: "pla85900", N: 85900, BestKnown: 142382641},
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Known, error) {
	for _, k := range Registry {
		if k.Name == name {
			return k, nil
		}
	}
	return Known{}, fmt.Errorf("tsplib: instance %q not in registry", name)
}

// Load synthesizes the named registry instance deterministically (seed 1
// is the repository-wide workload seed).
func Load(name string) (*Instance, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return Generate(k.Name, k.N, StyleForName(k.Name), 1), nil
}

// Names returns all registry instance names sorted by city count.
func Names() []string {
	ks := make([]Known, len(Registry))
	copy(ks, Registry)
	sort.Slice(ks, func(i, j int) bool { return ks[i].N < ks[j].N })
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names
}
