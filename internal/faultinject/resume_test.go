package faultinject

import "testing"

// Two kills at different epochs with a different worker count on every
// leg: the core kill-and-resume invariant, crossing worker counts the
// way a recovered service boot legitimately may.
func TestResumeKillAndResumeBitIdentical(t *testing.T) {
	RunResumeSchedule(t, ResumeSchedule{
		Seed: 201, N: 200, InstSeed: 5, SolverSeed: 11,
		Ops: []Op{
			{Kind: RKill, Arg: 1},
			{Kind: RKill, Arg: 4},
		},
		Workers: []int{1, 4, 2},
	})
}

// A bit-flipped checkpoint must be rejected with a diagnostic naming
// the file; restoring the pristine bytes must make resume work again.
func TestResumeCorruptRejectedThenBackupResumes(t *testing.T) {
	RunResumeSchedule(t, ResumeSchedule{
		Seed: 202, N: 160, InstSeed: 3, SolverSeed: 7,
		Ops: []Op{
			{Kind: RKill, Arg: 2},
			{Kind: RCorrupt, Arg: 31},
			{Kind: RCorrupt, Arg: 4097},
		},
		Workers: []int{2, 1},
	})
}

// Losing the newest snapshot (crash before the last write was durable)
// rolls the run back to an earlier epoch; replaying the lost tail must
// land on the identical final tour.
func TestResumeStaleCheckpointStillConverges(t *testing.T) {
	RunResumeSchedule(t, ResumeSchedule{
		Seed: 203, N: 200, InstSeed: 9, SolverSeed: 13,
		Ops: []Op{
			{Kind: RKill, Arg: 3},
			{Kind: RStale, Arg: 0},
		},
		Workers: []int{1, 3},
	})
}

// Crash-mid-write temp debris next to the checkpoint must not affect
// the resume.
func TestResumeTornTmpIgnored(t *testing.T) {
	RunResumeSchedule(t, ResumeSchedule{
		Seed: 204, N: 160, InstSeed: 2, SolverSeed: 5,
		Ops: []Op{
			{Kind: RTorn, Arg: 17}, // before any checkpoint exists
			{Kind: RKill, Arg: 2},
			{Kind: RTorn, Arg: 255}, // beside a live checkpoint
		},
		Workers: []int{2, 1},
	})
}

// TestResumeSeededMatrix runs generated kill-and-resume schedules for a
// fixed seed batch; CI and local runs can extend the matrix with a
// comma-separated FAULTINJECT_RESUME_SEEDS.
func TestResumeSeededMatrix(t *testing.T) {
	seedMatrix(t, "FAULTINJECT_RESUME_SEEDS", []uint64{1, 2, 3, 4}, func(t *testing.T, seed uint64) {
		RunResumeSchedule(t, GenResumeSchedule(seed))
	})
}
