package faultinject

import "testing"

// One node killed mid-anneal: the canonical failover — lease expiry,
// re-claim, checkpoint-migrated resume, bit-identical result.
func TestFleetKillMidAnneal(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 301, Jobs: 1, N: 200, InstSeed: 5, SolverSeed: 11, Workers: 2,
		Ops: []Op{{Kind: FKill, Arg: 2}},
	})
}

// Two kills against different holders across a two-job batch: the
// fleet must keep losing nodes and keep finishing work.
func TestFleetRepeatedKills(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 302, Jobs: 2, N: 200, InstSeed: 3, SolverSeed: 7, Workers: 2,
		Ops: []Op{
			{Kind: FKill, Arg: 1},
			{Kind: FKill, Arg: 3},
		},
	})
}

// A partitioned-but-alive holder: the job reassigns when the lease
// lapses, the partition heals, and the stale worker's late posts are
// all dropped — the lease-expiry race end to end.
func TestFleetBlackholeStaleHolder(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 303, Jobs: 1, N: 240, InstSeed: 9, SolverSeed: 13, Workers: 3,
		Ops: []Op{{Kind: FBlackhole, Arg: 2}},
	})
}

// A burst of synthetic nodes racing Claim plus a volley of stale
// completions: at most one claim wins, nothing double-settles.
func TestFleetDuplicateClaimStorm(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 304, Jobs: 1, N: 200, InstSeed: 2, SolverSeed: 5, Workers: 2,
		Ops: []Op{
			{Kind: FClaimStorm, Arg: 1},
			{Kind: FClaimStorm, Arg: 4},
		},
	})
}

// The whole control plane dies mid-anneal and reboots from the journal
// and checkpoint dir with a brand-new fleet; unfinished jobs recover,
// resume and land bit-identical.
func TestFleetCoordinatorRestart(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 305, Jobs: 2, N: 200, InstSeed: 4, SolverSeed: 9, Workers: 2,
		Ops: []Op{{Kind: FRestart, Arg: 3}},
	})
}

// Compound disaster: a kill, then a restart of the already-degraded
// fleet, then a storm against the rebooted coordinator.
func TestFleetKillThenRestartThenStorm(t *testing.T) {
	RunFleetSchedule(t, FleetSchedule{
		Seed: 306, Jobs: 2, N: 160, InstSeed: 6, SolverSeed: 3, Workers: 2,
		Ops: []Op{
			{Kind: FKill, Arg: 2},
			{Kind: FRestart, Arg: 4},
			{Kind: FClaimStorm, Arg: 2},
		},
	})
}

// TestFleetSeededMatrix runs generated distributed-fault schedules for
// a fixed seed batch; CI and local runs extend the matrix with a
// comma-separated FAULTINJECT_FLEET_SEEDS.
func TestFleetSeededMatrix(t *testing.T) {
	seedMatrix(t, "FAULTINJECT_FLEET_SEEDS", []uint64{1, 2, 3, 4}, func(t *testing.T, seed uint64) {
		RunFleetSchedule(t, GenFleetSchedule(seed))
	})
}
