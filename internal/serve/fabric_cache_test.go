package serve

import (
	"testing"

	"cimsa"
	"cimsa/internal/problem/tspprob"
)

// TestCacheFabricIsolation pins the scheduler-level consequence of
// folding the fabric identity into DesignHash: a job submitted under
// fabric A must never be served fabric B's cached result, even for a
// byte-identical instance with otherwise identical options — while a
// true duplicate (same fabric) still coalesces to a hit.
func TestCacheFabricIsolation(t *testing.T) {
	in := cimsa.GenerateInstance("fabiso", 48, 9)
	opts := func(fabric string) cimsa.Options {
		return cimsa.Options{Seed: 3, SkipHardware: true, Fabric: fabric}
	}

	s := NewScheduler(Config{MaxConcurrent: 1, QueueDepth: 8, CacheEntries: 16})
	defer shutdownNow(t, s)

	submit := func(fabric string) *Job {
		t.Helper()
		j, err := s.Submit(Spec{Task: tspprob.New(in, opts(fabric))})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}

	a := submit("sram")
	b := submit("mram")
	if st := b.Status(); st.Cached {
		t.Fatal("mram job was served the sram job's cached result")
	}
	if hits, misses := s.Metrics.CacheHits.Load(), s.Metrics.CacheMisses.Load(); hits != 0 || misses != 2 {
		t.Fatalf("after cross-fabric submits: hits=%d misses=%d, want 0/2", hits, misses)
	}

	// Same fabric, spelled two ways ("" is the sram alias): a real hit.
	c := submit("")
	if st := c.Status(); !st.Cached {
		t.Fatal("implicit-default job missed the explicit-sram cache entry")
	}
	if a.Result() != c.Result() {
		t.Fatal("alias hit returned a different result allocation than the sram leader's")
	}
	if hits := s.Metrics.CacheHits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d after alias resubmit, want 1", hits)
	}

	// And the mram entry is intact too.
	d := submit("mram")
	if st := d.Status(); !st.Cached {
		t.Fatal("duplicate mram job missed its own fabric's cache entry")
	}
}
