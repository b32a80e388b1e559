package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

func testInstance() *tsplib.Instance {
	return tsplib.Generate("ckpt-test", 40, tsplib.StyleForName("ckpt-test"), 4)
}

func testExpect() Expect {
	return Expect{
		Seed:          7,
		Mode:          clustered.ModeNoisyCIM.String(),
		Restarts:      2,
		Strategy:      cluster.Strategy{Kind: cluster.SemiFlex, P: 3},
		Schedule:      noise.PaperSchedule(),
		FabricKind:    "sram",
		FabricParams:  "max=0.1 v50=0.43 slope=20 seed=0",
		FabricVersion: "sram/v1",
		SolverVersion: "tsp/v1",
	}
}

// testSnapshot builds a structurally rich snapshot: mid-replica, one
// completed replica behind it, nested solver state.
func testSnapshot(in *tsplib.Instance) *Snapshot {
	exp := testExpect()
	// A rotation is the simplest nontrivial permutation.
	tour := make([]int, in.N())
	for i := range tour {
		tour[i] = (i + 11) % in.N()
	}
	return &Snapshot{
		Instance:      in.Name,
		N:             in.N(),
		InstanceHash:  InstanceHash(in),
		Seed:          exp.Seed,
		Mode:          exp.Mode,
		Restarts:      exp.Restarts,
		Strategy:      exp.Strategy,
		Schedule:      exp.Schedule,
		FabricKind:    exp.FabricKind,
		FabricParams:  exp.FabricParams,
		FabricVersion: exp.FabricVersion,
		SolverVersion: exp.SolverVersion,
		RNG:           Fingerprint(exp.Seed),
		Restart:       1,
		BestTour:      tour,
		BestLength:    1234.5,
		AggStats:      clustered.Stats{Levels: 4, BottomWindows: 20, Iterations: 1600, Proposed: 900, Accepted: 333, WriteBacks: 160, Cycles: 9600, WeightWrites: 88000, BoundaryTransferBits: 4242},
		Solver: &clustered.Snapshot{
			TopOrder: []int{2, 0, 1, 3},
			Done:     [][][]int{{{1, 0}, {0, 1, 2}}, {{0}, {2, 1, 0}, {1, 0}}},
			Level:    2,
			Iter:     137,
			Orders:   [][]int{{2, 0, 1}, {0, 1}, {1, 0, 2}},
			Stats:    clustered.Stats{Levels: 2, BottomWindows: 20, Iterations: 800, Proposed: 420, Accepted: 99, WriteBacks: 70, Cycles: 4100, WeightWrites: 41000, BoundaryTransferBits: 777},
			Flush:    true,
		},
	}
}

func encodeBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	in := testInstance()
	cases := map[string]*Snapshot{"full": testSnapshot(in)}
	// Restart-boundary snapshot: no solver state.
	b := testSnapshot(in)
	b.Solver = nil
	cases["boundary"] = b
	// First-replica snapshot: no best tour yet.
	f := testSnapshot(in)
	f.Restart = 0
	f.BestTour = nil
	f.BestLength = 0
	cases["first"] = f
	for name, s := range cases {
		got, err := Decode(bytes.NewReader(encodeBytes(t, s)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip changed the snapshot:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

func TestVerifyAcceptsMatching(t *testing.T) {
	in := testInstance()
	s := testSnapshot(in)
	if err := s.Verify(in, testExpect()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMismatches(t *testing.T) {
	in := testInstance()
	cases := map[string]func(s *Snapshot, exp *Expect, in2 **tsplib.Instance){
		"seed":        func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.Seed = 8 },
		"mode":        func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.Mode = "greedy" },
		"restarts":    func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.Restarts = 3 },
		"strategy":    func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.Strategy.P = 4 },
		"schedule":    func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.Schedule.Epochs = 9 },
		"fabric-kind": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.FabricKind = "mram" },
		"fabric-params": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) {
			exp.FabricParams = "max=0.1 v50=0.43 slope=20 seed=9"
		},
		"fabric-version": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { exp.FabricVersion = "sram/v2" },
		"rng-fingerprint": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) {
			s.RNG[2]++
		},
		"instance": func(s *Snapshot, exp *Expect, in2 **tsplib.Instance) {
			*in2 = tsplib.Generate("ckpt-test", 40, tsplib.StyleForName("ckpt-test"), 5)
		},
		"instance-size": func(s *Snapshot, exp *Expect, in2 **tsplib.Instance) {
			*in2 = tsplib.Generate("ckpt-test", 44, tsplib.StyleForName("ckpt-test"), 4)
		},
		"restart-range": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) { s.Restart = 5 },
		"tour-broken": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) {
			s.BestTour[0] = s.BestTour[1]
		},
		"empty": func(s *Snapshot, exp *Expect, _ **tsplib.Instance) {
			s.Restart = 0
			s.Solver = nil
			s.BestTour = nil
		},
	}
	for name, tweak := range cases {
		s := testSnapshot(in)
		exp := testExpect()
		target := in
		tweak(s, &exp, &target)
		err := s.Verify(target, exp)
		if err == nil {
			t.Errorf("%s: Verify accepted a mismatched snapshot", name)
			continue
		}
		if !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: error %v does not wrap ErrMismatch", name, err)
		}
	}
}

// TestVerifyNamesSolverVersion: a snapshot annealed by another solver
// version round-trips through the file format but is refused, and the
// diagnostic names the field and both versions.
func TestVerifyNamesSolverVersion(t *testing.T) {
	in := testInstance()
	s, err := Decode(bytes.NewReader(encodeBytes(t, testSnapshot(in))))
	if err != nil {
		t.Fatal(err)
	}
	if s.SolverVersion != "tsp/v1" {
		t.Fatalf("solver version %q did not round-trip", s.SolverVersion)
	}
	exp := testExpect()
	exp.SolverVersion = "tsp/v2"
	err = s.Verify(in, exp)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
	for _, want := range []string{"solver version", `"tsp/v2"`, `"tsp/v1"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q does not contain %s", err, want)
		}
	}
}

// TestFuzzCorpusRejected: every committed FuzzDecode input is refused
// with ErrInvalid.
func TestFuzzCorpusRejected(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v %v", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// The file is "go test fuzz v1" then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := Decode(strings.NewReader(data)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: got %v, want ErrInvalid", f, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	in := testInstance()
	data := encodeBytes(t, testSnapshot(in))

	// Truncation at every length must fail loudly, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(bytes.NewReader(data[:n])); !errors.Is(err, ErrInvalid) {
			t.Fatalf("truncation at %d: got %v", n, err)
		}
	}
	// Any single bit flip must be caught (CRC covers every byte).
	for pos := 0; pos < len(data); pos += 7 {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x10
		if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("bit flip at %d: got %v", pos, err)
		}
	}
	// Version skew: a future format version, or format 2 from before the
	// solver version field, is refused even with a recomputed checksum —
	// no silent misreads of newer or older files.
	for _, v := range []uint32{2, 99} {
		skew := append([]byte(nil), data[:len(data)-4]...)
		binary.LittleEndian.PutUint32(skew[8:], v)
		skew = binary.LittleEndian.AppendUint32(skew, crc32.ChecksumIEEE(skew))
		if _, err := Decode(bytes.NewReader(skew)); !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) {
			t.Fatalf("version %d: got %v", v, err)
		}
	}
	// Wrong magic.
	mag := append([]byte(nil), data...)
	mag[0] = 'X'
	if _, err := Decode(bytes.NewReader(mag)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad magic: got %v", err)
	}
	// Hostile payload length must not allocate or hang.
	huge := append([]byte(nil), data[:12]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Decode(bytes.NewReader(huge)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("huge payload length: got %v", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	in := testInstance()
	s := testSnapshot(in)
	dir := t.TempDir()
	path := DefaultPath(dir, in, s.Seed)
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("Save left its temp file behind")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("Load returned a different snapshot than Save wrote")
	}
	// Overwrite with a later snapshot; the newest wins intact.
	s2 := testSnapshot(in)
	s2.Solver.Iter = 200
	if err := Save(path, s2); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver.Iter != 200 {
		t.Fatal("overwrite did not persist the newer snapshot")
	}
	// A stale torn temp file (crash during a later write) must not
	// confuse Load: the real file still decodes.
	if err := os.WriteFile(path+".tmp", []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("torn temp file broke Load: %v", err)
	}
}

// TestWriteFileFailedWriteKeepsPrevious fails the write callback midway
// (after part of the new content went out, and over a stale temp file
// from a crashed writer): the previous file must survive byte for byte
// and no temp file may remain.
func TestWriteFileFailedWriteKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	prev := []byte("previous complete content\n")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(prev)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the next")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed write left its temp file behind (stat: %v)", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v", err)
	}
}

func TestLoadCorruptFile(t *testing.T) {
	in := testInstance()
	dir := t.TempDir()
	path := DefaultPath(dir, in, 7)
	data := encodeBytes(t, testSnapshot(in))
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("corrupt file: got %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("diagnostic %q does not name the file", err)
	}
}

func TestInstanceHashSensitivity(t *testing.T) {
	a := testInstance()
	b := tsplib.Generate("ckpt-test", 40, tsplib.StyleForName("ckpt-test"), 5)
	if InstanceHash(a) == InstanceHash(b) {
		t.Fatal("different geometries hash equal")
	}
	c := *a
	c.Metric = c.Metric + 1
	if InstanceHash(a) == InstanceHash(&c) {
		t.Fatal("metric change did not change the hash")
	}
	if InstanceHash(a) != InstanceHash(testInstance()) {
		t.Fatal("identical instances hash differently")
	}
}

func TestDefaultPathSanitizes(t *testing.T) {
	in := testInstance()
	in.Name = "we/ird na:me"
	p := DefaultPath("state", in, 3)
	base := filepath.Base(p)
	if strings.ContainsAny(base, "/: ") {
		t.Fatalf("unsanitized path %q", p)
	}
	if !strings.HasSuffix(base, "-n40-s3.ckpt") {
		t.Fatalf("path %q lacks the n/seed suffix", p)
	}
}

// Paper-scale solves (85,900 cities x hundreds of levels x restarts)
// push the swap counters past 32 bits. The wire format was always u64;
// this pins that overflow-scale int64 Stats survive the round trip
// undamaged — a regression test for the int(...) narrowing the decoder
// used to apply to Proposed/Accepted/WriteBacks.
func TestRoundTripOverflowScaleStats(t *testing.T) {
	in := testInstance()
	s := testSnapshot(in)
	big := clustered.Stats{
		Levels:               300,
		BottomWindows:        28634,
		Iterations:           48_000_000,
		Proposed:             math.MaxInt32 + int64(12345),
		Accepted:             math.MaxInt32 + int64(777),
		WriteBacks:           math.MaxInt32 + int64(9),
		Cycles:               1 << 40,
		WeightWrites:         1 << 41,
		BoundaryTransferBits: 1 << 42,
	}
	s.AggStats = big
	s.Solver.Stats = big
	got, err := Decode(bytes.NewReader(encodeBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if got.AggStats != big {
		t.Fatalf("aggregate stats changed:\n got %+v\nwant %+v", got.AggStats, big)
	}
	if got.Solver.Stats != big {
		t.Fatalf("solver stats changed:\n got %+v\nwant %+v", got.Solver.Stats, big)
	}
}
