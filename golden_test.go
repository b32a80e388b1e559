package cimsa_test

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"cimsa"
)

// goldenCase pins the exact output of a default-fabric (sram) solve as
// it was before the Fabric interface extraction. The refactor's prime
// directive is that the default path stays bit-identical: same tour,
// same length, at every worker count. Any change to these values means
// the SRAM fabric's read math, seed derivation, or the proposal stream
// drifted — which silently invalidates every cached result and every
// published quality number.
type goldenCase struct {
	name     string
	n        int
	genSeed  uint64
	opts     cimsa.Options
	wantHash uint64  // FNV-1a over the tour's city sequence
	wantLen  float64 // exact float64 tour length
}

// tourFingerprint hashes the tour order with FNV-1a; any single
// transposition changes it.
func tourFingerprint(t cimsa.Tour) uint64 {
	h := fnv.New64a()
	for _, c := range t {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(c >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "pcb300-default", n: 300, genSeed: 7,
			opts:     cimsa.Options{Seed: 42, SkipHardware: true},
			wantHash: 0x3b8fdb68c590ba8d, wantLen: 1536,
		},
		{
			name: "rl500-restarts", n: 500, genSeed: 11,
			opts:     cimsa.Options{Seed: 9, Restarts: 2, SkipHardware: true},
			wantHash: 0x1fc2982820749649, wantLen: 3112,
		},
		{
			name: "uniform240-metropolis", n: 240, genSeed: 3,
			opts:     cimsa.Options{Seed: 5, Mode: "metropolis", SkipHardware: true},
			wantHash: 0x9939a0f47b20d9c5, wantLen: 2905,
		},
		{
			// Eleven levels and a leaf level of 6,000 windows: deep enough
			// for the pooled dispatch to vary its fan-out across levels, and
			// for the lazily pseudo-read windows to see every noisy epoch.
			// Captured before the window slabs, lazy reads and hoisted
			// counter hash.
			name: "s12000", n: 12000, genSeed: 12001,
			opts:     cimsa.Options{Seed: 3, SkipHardware: true},
			wantHash: 0xeea2a3d1655c06a1, wantLen: 158517,
		},
	}
}

// TestGoldenDefaultFabricBitIdentity solves each pinned case at several
// worker counts and compares the result bit-for-bit against values
// captured on the pre-refactor tree. One more sequential run attaches a
// progress hook and a checkpoint writer: hooks only observe, so the
// golden holds with them too.
func TestGoldenDefaultFabricBitIdentity(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			in := cimsa.GenerateInstance(tc.name, tc.n, tc.genSeed)
			var events, writes atomic.Int64
			hooked := tc.opts
			hooked.Workers = 1
			hooked.Progress = func(cimsa.ProgressEvent) { events.Add(1) }
			hooked.Checkpoint = cimsa.Checkpoint{Dir: t.TempDir(), OnWrite: func(string) { writes.Add(1) }}
			type config struct {
				name string
				opts cimsa.Options
			}
			configs := []config{{"hooks", hooked}}
			for _, workers := range []int{1, 2, 4, cimsa.WorkersAuto} {
				opts := tc.opts
				opts.Workers = workers
				configs = append(configs, config{fmt.Sprintf("workers=%d", workers), opts})
			}
			for _, c := range configs {
				rep, err := cimsa.Solve(in, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				gotHash := tourFingerprint(rep.Tour)
				if gotHash != tc.wantHash || rep.Length != tc.wantLen {
					t.Errorf("%s: got (hash %#x, len %v), golden (hash %#x, len %v)",
						c.name, gotHash, rep.Length, tc.wantHash, tc.wantLen)
				}
			}
			if events.Load() == 0 || writes.Load() == 0 {
				t.Errorf("hooks did not fire: %d progress events, %d checkpoint writes", events.Load(), writes.Load())
			}
		})
	}
}

// TestFabricWorkerDeterminism extends the bit-identity requirement to
// the non-default fabrics: a solve under any fabric must produce the
// same tour at every worker count, because every read is a pure
// function of (cell, supply, seed) — never of scheduling order. This is
// the solver-level half of the fabric conformance suite.
func TestFabricWorkerDeterminism(t *testing.T) {
	for _, fabric := range []string{"sram", "mram", "fefet", "clean"} {
		fabric := fabric
		t.Run(fabric, func(t *testing.T) {
			t.Parallel()
			in := cimsa.GenerateInstance("det-"+fabric, 200, 13)
			var refHash uint64
			var refLen float64
			for i, workers := range []int{1, 4} {
				opts := cimsa.Options{Seed: 21, SkipHardware: true, Fabric: fabric, Workers: workers}
				rep, err := cimsa.Solve(in, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if i == 0 {
					refHash, refLen = tourFingerprint(rep.Tour), rep.Length
					continue
				}
				if got := tourFingerprint(rep.Tour); got != refHash || rep.Length != refLen {
					t.Errorf("workers=%d diverged: (hash %#x, len %v) vs workers=1 (hash %#x, len %v)",
						workers, got, rep.Length, refHash, refLen)
				}
			}
		})
	}
}
