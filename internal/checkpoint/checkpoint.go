// Package checkpoint persists full solver state durably: a versioned,
// checksummed binary snapshot format with atomic rename-on-write, plus
// restore-side validation that rejects corrupt, truncated or
// mismatched-instance files with a diagnostic — never silently annealing
// from bad state.
//
// A file captures everything a resumed run needs to be bit-identical to
// one that never stopped: the restart index and best-so-far tour, the
// aggregated Stats of completed replicas, and (mid-replica) the
// clustered solver's Snapshot — per-level cluster orders and the
// annealing-schedule position (iteration, from which V_DD, nLSB and the
// write-back epoch derive). The solver draws its randomness from
// counter hashes and the stateless fabric, both functions of the seed,
// so no RNG stream position needs to be saved; the file instead records
// the seed's xoshiro fingerprint (rng.New(Seed).State()) and the reader
// recomputes it, which catches a generator whose stream drifted between
// the writing and reading builds.
//
// Layout (all little-endian):
//
//	[0,8)    magic "CIMSACK1"
//	[8,12)   format version (uint32)
//	[12,20)  payload length (uint64)
//	[20,20+L) payload (field-by-field fixed-width/length-prefixed)
//	[20+L,+4) CRC-32 (IEEE) over every preceding byte
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/noise"
	"cimsa/internal/rng"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// Magic identifies a checkpoint file; Version is the format revision.
// Decode rejects any other magic or version (no forward compatibility:
// a newer writer's file is refused rather than misread).
// Version 2 added the fabric identity triple (kind, params, version) so
// a snapshot annealed under one noise fabric cannot silently resume
// under another; version-1 files are refused with ErrInvalid version
// skew and the caller solves fresh.
const (
	Magic   = "CIMSACK1"
	Version = 2
)

// Sentinel errors. Every decode failure wraps ErrInvalid; every
// Verify failure wraps ErrMismatch. Callers branch on errors.Is and
// surface the full message as the diagnostic.
var (
	ErrInvalid  = errors.New("checkpoint: invalid or corrupt checkpoint")
	ErrMismatch = errors.New("checkpoint: checkpoint does not match this run")
)

// Decode-side caps: a corrupt length field must not drive allocation.
const (
	maxNameLen  = 1024
	maxN        = 1 << 24
	maxLevels   = 64
	maxOrderLen = 255
	maxIter     = 1 << 30
)

// Snapshot is the full durable solver state.
type Snapshot struct {
	// Instance, N and InstanceHash identify the workload; the hash
	// covers the metric and every coordinate, so a same-named instance
	// with different geometry is rejected on restore.
	Instance     string
	N            int
	InstanceHash uint64
	// Seed, Mode, Restarts, Strategy and Schedule fingerprint the
	// configuration; resume under any other design point would not be
	// bit-identical, so Verify rejects it.
	Seed     uint64
	Mode     string
	Restarts int
	Strategy cluster.Strategy
	Schedule noise.Schedule
	// FabricKind/FabricParams/FabricVersion identify the noise fabric
	// the run annealed under (the canonical kind, the implementation's
	// parameter string at the configured fabric seed, and its version
	// tag). Two fabrics with different identities draw different bit-flip
	// streams, so resuming across them would silently diverge from both
	// uninterrupted runs; Verify rejects the resume instead.
	FabricKind    string
	FabricParams  string
	FabricVersion string
	// RNG is rng.New(Seed).State() as computed by the writer.
	RNG [4]uint64
	// Restart is the replica index the run was in when snapshotted.
	Restart int
	// BestTour/BestLength hold the best completed replica's solution
	// (empty until one replica finishes).
	BestTour   []int
	BestLength float64
	// AggStats aggregates the completed replicas' work counters.
	AggStats clustered.Stats
	// Solver is the in-progress replica's state; nil for a snapshot
	// taken at a restart boundary (between replicas).
	Solver *clustered.Snapshot
}

// Fingerprint returns the xoshiro state words the seed expands to —
// the cross-release RNG drift detector stored in every file.
func Fingerprint(seed uint64) [4]uint64 { return rng.New(seed).State() }

// InstanceHash fingerprints an instance's geometry: city count, metric
// and the exact bits of every coordinate (FNV-1a).
func InstanceHash(in *tsplib.Instance) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	mix(uint64(in.N()))
	mix(uint64(in.Metric))
	for _, c := range in.Cities {
		mix(math.Float64bits(c.X))
		mix(math.Float64bits(c.Y))
	}
	return h
}

// DefaultPath names the checkpoint file for an (instance, seed) pair
// inside dir. The name encodes instance identity so one directory can
// hold checkpoints for many runs without collisions.
func DefaultPath(dir string, in *tsplib.Instance, seed uint64) string {
	name := in.Name
	if name == "" {
		name = "instance"
	}
	clean := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			clean = append(clean, r)
		default:
			clean = append(clean, '_')
		}
	}
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-s%d.ckpt", string(clean), in.N(), seed))
}

// Encode serializes the snapshot to w in the versioned, checksummed
// format.
func Encode(w io.Writer, s *Snapshot) error {
	var p encoder
	p.str(s.Instance)
	p.u64(uint64(s.N))
	p.u64(s.InstanceHash)
	p.u64(s.Seed)
	p.str(s.Mode)
	p.u32(uint32(s.Restarts))
	p.u32(uint32(s.Strategy.Kind))
	p.u32(uint32(s.Strategy.P))
	p.f64(s.Schedule.VDDStart)
	p.f64(s.Schedule.VDDStep)
	p.u32(uint32(s.Schedule.Epochs))
	p.u32(uint32(s.Schedule.EpochIters))
	p.u32(uint32(s.Schedule.StartLSBs))
	p.bool(s.Schedule.FixedLSBs)
	p.str(s.FabricKind)
	p.str(s.FabricParams)
	p.str(s.FabricVersion)
	for _, v := range s.RNG {
		p.u64(v)
	}
	p.u32(uint32(s.Restart))
	p.u32(uint32(len(s.BestTour)))
	for _, c := range s.BestTour {
		p.u32(uint32(c))
	}
	p.f64(s.BestLength)
	p.stats(s.AggStats)
	if s.Solver == nil {
		p.bool(false)
	} else {
		p.bool(true)
		sv := s.Solver
		p.u32(uint32(len(sv.TopOrder)))
		for _, v := range sv.TopOrder {
			p.u32(uint32(v))
		}
		p.u32(uint32(len(sv.Done)))
		for _, level := range sv.Done {
			p.orders(level)
		}
		p.u32(uint32(sv.Level))
		p.u32(uint32(sv.Iter))
		p.orders(sv.Orders)
		p.stats(sv.Stats)
		p.bool(sv.Flush)
	}

	head := make([]byte, 0, 20+len(p.buf)+4)
	head = append(head, Magic...)
	head = le32(head, Version)
	head = le64(head, uint64(len(p.buf)))
	head = append(head, p.buf...)
	head = le32(head, crc32.ChecksumIEEE(head))
	_, err := w.Write(head)
	return err
}

// Decode parses and validates one snapshot. Any structural problem —
// truncation, bad magic, version skew, checksum failure, out-of-range
// counts — returns an error wrapping ErrInvalid. Allocation is bounded
// by the input length, so hostile length fields cannot balloon memory.
func Decode(r io.Reader) (*Snapshot, error) {
	head := make([]byte, 20)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrInvalid, err)
	}
	if string(head[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalid, head[:8])
	}
	version := rd32(head[8:])
	if version != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrInvalid, version, Version)
	}
	plen := rd64(head[12:])
	const maxPayload = 1 << 30
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrInvalid, plen, maxPayload)
	}
	// Read through a LimitReader so allocation tracks the bytes actually
	// present, not the header's claim: a 20-byte file declaring a huge
	// payload must fail on truncation without ever sizing a buffer to it.
	rest, err := io.ReadAll(io.LimitReader(r, int64(plen)+4))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload (claims %d bytes): %v", ErrInvalid, plen, err)
	}
	if uint64(len(rest)) != plen+4 {
		return nil, fmt.Errorf("%w: truncated (payload claims %d bytes, %d on hand)", ErrInvalid, plen, len(rest))
	}
	sum := crc32.ChecksumIEEE(head)
	sum = crc32.Update(sum, crc32.IEEETable, rest[:plen])
	if got := rd32(rest[plen:]); got != sum {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrInvalid, got, sum)
	}

	d := &decoder{buf: rest[:plen]}
	s := &Snapshot{}
	s.Instance = d.str(maxNameLen, "instance name")
	s.N = int(d.u64n(maxN, "N"))
	s.InstanceHash = d.u64()
	s.Seed = d.u64()
	s.Mode = d.str(maxNameLen, "mode")
	s.Restarts = int(d.u32n(1<<20, "restarts"))
	s.Strategy.Kind = cluster.Kind(d.u32n(16, "strategy kind"))
	s.Strategy.P = int(d.u32n(255, "strategy p"))
	s.Schedule.VDDStart = d.f64()
	s.Schedule.VDDStep = d.f64()
	s.Schedule.Epochs = int(d.u32n(1<<20, "epochs"))
	s.Schedule.EpochIters = int(d.u32n(maxIter, "epoch iters"))
	s.Schedule.StartLSBs = int(d.u32n(64, "start LSBs"))
	s.Schedule.FixedLSBs = d.bool()
	s.FabricKind = d.str(maxNameLen, "fabric kind")
	s.FabricParams = d.str(maxNameLen, "fabric params")
	s.FabricVersion = d.str(maxNameLen, "fabric version")
	for i := range s.RNG {
		s.RNG[i] = d.u64()
	}
	s.Restart = int(d.u32n(1<<20, "restart index"))
	tourLen := int(d.u32n(maxN, "tour length"))
	if tourLen > 0 {
		d.need(tourLen * 4)
		if d.err == nil {
			s.BestTour = make([]int, tourLen)
			for i := range s.BestTour {
				s.BestTour[i] = int(d.u32n(uint32(maxN), "tour city"))
			}
		}
	}
	s.BestLength = d.f64()
	s.AggStats = d.stats()
	if d.bool() {
		sv := &clustered.Snapshot{}
		topLen := int(d.u32n(cluster.TopThreshold, "top order length"))
		d.need(topLen * 4)
		if d.err == nil {
			sv.TopOrder = make([]int, topLen)
			for i := range sv.TopOrder {
				sv.TopOrder[i] = int(d.u32n(uint32(topLen), "top order entry"))
			}
		}
		doneLen := int(d.u32n(maxLevels, "completed level count"))
		for k := 0; k < doneLen && d.err == nil; k++ {
			sv.Done = append(sv.Done, d.orders())
		}
		sv.Level = int(d.u32n(maxLevels, "level index"))
		sv.Iter = int(d.u32n(maxIter, "iteration"))
		sv.Orders = d.orders()
		sv.Stats = d.stats()
		sv.Flush = d.bool()
		s.Solver = sv
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrInvalid, len(d.buf)-d.off)
	}
	return s, nil
}

// Expect is the running configuration Verify holds a snapshot against.
type Expect struct {
	Seed     uint64
	Mode     string
	Restarts int // effective count (>= 1)
	Strategy cluster.Strategy
	Schedule noise.Schedule
	// Fabric identity of the running configuration (see Snapshot).
	FabricKind    string
	FabricParams  string
	FabricVersion string
}

// Verify checks that the snapshot belongs to this instance and
// configuration. Every failure wraps ErrMismatch and names the field,
// so the caller's diagnostic says exactly why the file was refused.
func (s *Snapshot) Verify(in *tsplib.Instance, exp Expect) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
	}
	if s.N != in.N() {
		return fail("instance has %d cities, checkpoint was taken on %d", in.N(), s.N)
	}
	if s.Instance != in.Name {
		return fail("instance name %q, checkpoint was taken on %q", in.Name, s.Instance)
	}
	if h := InstanceHash(in); s.InstanceHash != h {
		return fail("instance geometry hash %016x, checkpoint has %016x (different coordinates or metric)", h, s.InstanceHash)
	}
	if s.Seed != exp.Seed {
		return fail("run seed %d, checkpoint has %d", exp.Seed, s.Seed)
	}
	if s.Mode != exp.Mode {
		return fail("mode %q, checkpoint has %q", exp.Mode, s.Mode)
	}
	if s.Restarts != exp.Restarts {
		return fail("restarts %d, checkpoint has %d", exp.Restarts, s.Restarts)
	}
	if s.Strategy != exp.Strategy {
		return fail("clustering strategy %+v, checkpoint has %+v", exp.Strategy, s.Strategy)
	}
	if s.Schedule != exp.Schedule {
		return fail("schedule %+v, checkpoint has %+v", exp.Schedule, s.Schedule)
	}
	if s.FabricKind != exp.FabricKind {
		return fail("fabric kind %q, checkpoint was annealed under %q", exp.FabricKind, s.FabricKind)
	}
	if s.FabricParams != exp.FabricParams {
		return fail("fabric params %q, checkpoint has %q", exp.FabricParams, s.FabricParams)
	}
	if s.FabricVersion != exp.FabricVersion {
		return fail("fabric version %q, checkpoint has %q", exp.FabricVersion, s.FabricVersion)
	}
	if want := Fingerprint(s.Seed); s.RNG != want {
		return fail("RNG fingerprint %x, this build derives %x from seed %d (generator stream drifted between releases)",
			s.RNG, want, s.Seed)
	}
	if s.Restart < 0 || s.Restart >= s.Restarts {
		return fail("restart index %d out of range [0, %d)", s.Restart, s.Restarts)
	}
	if s.Solver == nil && s.Restart == 0 {
		return fail("no in-progress solver state and no completed replica (empty checkpoint)")
	}
	if s.Restart > 0 || s.Solver == nil {
		// At least one replica completed: the best tour must be present
		// and a valid cycle.
		if err := tour.Tour(s.BestTour).Validate(s.N); err != nil {
			return fail("best tour invalid: %v", err)
		}
		if math.IsNaN(s.BestLength) || s.BestLength < 0 {
			return fail("best length %v invalid", s.BestLength)
		}
	} else if len(s.BestTour) != 0 {
		return fail("restart 0 cannot carry a completed best tour")
	}
	return nil
}

// Save writes the snapshot to path atomically (see WriteFile).
func Save(path string, s *Snapshot) error {
	if err := WriteFile(path, func(w io.Writer) error { return Encode(w, s) }); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// WriteFile replaces path atomically with what write produces: write
// fills a temp file in the same directory, which is fsynced, then
// renamed over path, and the directory entry is fsynced. A crash at any
// point leaves either the previous complete file or the new complete
// file, never a torn one. If any step fails, the temp file is removed
// and path is left as it was. Stale temp files from a crashed writer
// are simply overwritten.
func WriteFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		// Best effort: persist the directory entry too. Some filesystems
		// reject directory fsync; the rename itself is already atomic.
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// Load reads and structurally validates the checkpoint at path. A
// missing file returns an error satisfying errors.Is(err, fs.ErrNotExist)
// so callers can distinguish "no checkpoint yet" from corruption.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
