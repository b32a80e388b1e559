package clustered

import (
	"hash/fnv"
	"testing"

	"cimsa/internal/cluster"
	"cimsa/internal/noise"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// readPathCase pins one solve whose weights reach the swap decision
// through a read path the default-fabric goldens do not cover.
type readPathCase struct {
	name    string
	n       int
	opts    func() Options
	workers []int
	// wantHash is FNV-1a over the tour's city sequence; wantLen and
	// wantAccepted are the exact tour length and accepted-swap count.
	wantHash     uint64
	wantLen      float64
	wantAccepted int64
}

// withFabric returns noisy-cim options reading through the named fabric.
func withFabric(kind string, seed uint64) func() Options {
	return func() Options {
		o := solveOpts(ModeNoisyCIM, seed)
		f, err := noise.New(kind, seed^0xfab)
		if err != nil {
			panic(err)
		}
		o.Fabric = f
		return o
	}
}

func readPathCases() []readPathCase {
	return []readPathCase{
		{
			name: "mram", n: 600, opts: withFabric(noise.KindMRAM, 31), workers: []int{1},
			wantHash: 0xa3aa8e89d6660561, wantLen: 3295, wantAccepted: 311,
		},
		{
			name: "fefet", n: 600, opts: withFabric(noise.KindFeFET, 32), workers: []int{1},
			wantHash: 0x2e5b537cdcb4c2e5, wantLen: 3367, wantAccepted: 961,
		},
		{
			name: "clean", n: 600, opts: withFabric(noise.KindClean, 33), workers: []int{1},
			wantHash: 0xca233dacafe730bd, wantLen: 3976, wantAccepted: 284,
		},
		{
			name: "noisy-spins", n: 600, workers: []int{1},
			opts:     func() Options { return solveOpts(ModeNoisySpins, 34) },
			wantHash: 0x4cbdad172cd99c79, wantLen: 3738, wantAccepted: 8189,
		},
		{
			name: "weight-bits-4", n: 600, workers: []int{1},
			opts: func() Options {
				o := solveOpts(ModeNoisyCIM, 35)
				o.WeightBits = 4
				return o
			},
			wantHash: 0x9cc8560a44d2aad9, wantLen: 4196, wantAccepted: 897,
		},
		{
			// Above the auto pool's size floor, with p=4 windows (six
			// slot pairs each), solved inline and on an explicit pool.
			name: "pooled-p4", n: 3000, workers: []int{1, 2},
			opts: func() Options {
				o := solveOpts(ModeNoisyCIM, 36)
				o.Strategy = cluster.Strategy{Kind: cluster.SemiFlex, P: 4}
				return o
			},
			wantHash: 0x44ed8afd21d2d6b9, wantLen: 19518, wantAccepted: 5517,
		},
	}
}

// tourHash is FNV-1a over the tour's city sequence; any single
// transposition changes it.
func tourHash(t tour.Tour) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range t {
		for i := range buf {
			buf[i] = byte(c >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestReadPathGoldens pins exact tours for the weight read paths the
// default-fabric goldens leave out: the mram, fefet and clean fabrics,
// the noisy-spins ablation (corrupted inputs), 4-bit masked weights and
// a pooled-size solve with p=4 windows. Worker-count determinism alone
// would pass a change that is wrong the same way at every worker
// count; these values catch it.
func TestReadPathGoldens(t *testing.T) {
	for _, tc := range readPathCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			in := tsplib.Generate("readpath-"+tc.name, tc.n, tsplib.StyleClustered, 71)
			for _, wk := range tc.workers {
				o := tc.opts()
				o.Workers = wk
				res, err := Solve(in, o)
				if err != nil {
					t.Fatal(err)
				}
				if got := tourHash(res.Tour); got != tc.wantHash || res.Length != tc.wantLen || res.Stats.Accepted != tc.wantAccepted {
					t.Errorf("workers=%d: got (hash %#x, len %v, accepted %d), golden (hash %#x, len %v, accepted %d)",
						wk, got, res.Length, res.Stats.Accepted, tc.wantHash, tc.wantLen, tc.wantAccepted)
				}
			}
		})
	}
}
