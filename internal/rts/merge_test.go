package rts

import "testing"

// TestMergeSumsWorkMaxesObservations: Merge adds the per-subsystem work
// counters — elections and takeovers included, since each sequencer
// group recovers its own sequencer — but takes the max of
// whole-machine observations (crashes, recovery outage): every
// subsystem on the same machines witnesses the same crash, so a sum
// would double-count it, and the outage is the worst one anywhere.
func TestMergeSumsWorkMaxesObservations(t *testing.T) {
	a := RTSStats{
		LocalReads: 10, BcastWrites: 5, GuardWaits: 1, Forwarded: 2,
		BatchedOps: 8, Frames: 3, RemoteReads: 4, P2PWrites: 6,
		Fetches: 1, Discards: 1, Invalidations: 2, Updates: 3,
		FencedOps: 4, Crashes: 2, OpsRetried: 1, Rehomed: 1,
		Elections: 1, Takeovers: 2, Reproposals: 5, RecoveryVirtualUS: 100,
	}
	b := RTSStats{
		LocalReads: 1, BcastWrites: 2, GuardWaits: 3, Forwarded: 4,
		BatchedOps: 5, Frames: 6, RemoteReads: 7, P2PWrites: 8,
		Fetches: 9, Discards: 10, Invalidations: 11, Updates: 12,
		FencedOps: 13, Crashes: 1, OpsRetried: 14, Rehomed: 15,
		Elections: 3, Takeovers: 1, Reproposals: 16, RecoveryVirtualUS: 40,
	}
	got := Merge(a, b)
	want := RTSStats{
		LocalReads: 11, BcastWrites: 7, GuardWaits: 4, Forwarded: 6,
		BatchedOps: 13, Frames: 9, RemoteReads: 11, P2PWrites: 14,
		Fetches: 10, Discards: 11, Invalidations: 13, Updates: 15,
		FencedOps: 17, Crashes: 2, OpsRetried: 15, Rehomed: 16,
		Elections: 4, Takeovers: 3, Reproposals: 21, RecoveryVirtualUS: 100,
	}
	if got != want {
		t.Fatalf("Merge mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestMergeEmptyAndIdentity: merging nothing is the zero snapshot, and
// merging a single snapshot returns it unchanged.
func TestMergeEmptyAndIdentity(t *testing.T) {
	if got := Merge(); got != (RTSStats{}) {
		t.Fatalf("Merge() = %+v, want zero", got)
	}
	one := RTSStats{LocalReads: 3, Crashes: 1, Elections: 2}
	if got := Merge(one); got != one {
		t.Fatalf("Merge(one) = %+v, want %+v", got, one)
	}
}
