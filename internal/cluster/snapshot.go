package cluster

// Standby attach by state snapshot. The primary retains no input log: a
// standby may attach at any point of a run, and catching it up by entries
// alone would mean keeping every accepted status — frontiers included —
// for as long as the run lasts. Instead every attaching standby is handed
// a snapshot of the replicated state (lbState) cut at an entry boundary,
// followed by the live entry stream from the next sequence number on. The
// correctness bar is state identity: installing a snapshot cut at seq S
// and applying entries S+1..N must produce the same StateFingerprint as
// replaying 1..N (pinned by a property test).
//
// Nothing in this file names a replicated field for copying. The blob is
// the JSON encoding of lbState itself, installed by decoding it into the
// state of a freshly constructed balancer. JSON rather than the gob the
// rest of the wire speaks, for two reasons: it round-trips nil and empty
// as themselves, and its decoder allocates in proportion to its input —
// gob sizes a map from the count the stream declares, and
// FuzzInstallState drove that to MakeMapWithSize(4.2e9) and an
// out-of-memory exit from a 3 KB blob.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"cloud9/internal/obs"
)

// RepSnapshot is a point-in-time capture of the balancer's replicated
// state: what an attaching standby installs before it applies entries.
type RepSnapshot struct {
	Blob []byte // JSON-encoded lbState
}

// maxSnapshotBytes bounds the blob InstallState will decode. A snapshot
// holds each member's last frontier, so it grows with the run, but the
// gob message that carries it cannot exceed this size on every platform;
// anything larger did not come from SnapshotState.
const maxSnapshotBytes = 1 << 30

// SnapshotState captures the balancer's replicated state as of the last
// logged (or applied) entry. The caller must be at an entry boundary: no
// entry point half-run.
func (lb *LoadBalancer) SnapshotState() (*RepSnapshot, error) {
	blob, err := json.Marshal(&lb.lbState)
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot encode: %w", err)
	}
	return &RepSnapshot{Blob: blob}, nil
}

// serveSnapshot is SnapshotState for an attaching standby: the attach is
// journaled and counted (c9_lb_rep_snapshots_total) on the primary.
func (lb *LoadBalancer) serveSnapshot(now time.Time) (*RepSnapshot, error) {
	snap, err := lb.SnapshotState()
	if err != nil {
		return nil, err
	}
	lb.snapshotsServed++
	lb.journal.AppendAt(now, obs.EvRepSnapshot, LBFrom, map[string]string{
		"seq":  strconv.FormatUint(lb.RepSeq, 10),
		"blob": strconv.Itoa(len(snap.Blob)),
	})
	return snap, nil
}

// InstallState replaces the replica's state with a snapshot's; subsequent
// Apply calls must start at the snapshot's sequence number plus one
// (LastSeq reports it). The blob arrives from the network: one that does
// not decode, or decodes to a state this replica's configuration cannot
// have produced, is an error and leaves the replica as it was.
func (r *Replica) InstallState(snap *RepSnapshot) error {
	if len(snap.Blob) > maxSnapshotBytes {
		return fmt.Errorf("cluster: snapshot of %d bytes exceeds the %d limit", len(snap.Blob), maxSnapshotBytes)
	}
	covLen := r.lb.Cov.Len() - 1
	fresh := NewLoadBalancer(r.lb.cfg, covLen)
	if err := json.Unmarshal(snap.Blob, &fresh.lbState); err != nil {
		return fmt.Errorf("cluster: snapshot decode: %w", err)
	}
	if err := fresh.validate(r.lb.cfg, covLen); err != nil {
		return fmt.Errorf("cluster: snapshot rejected: %w", err)
	}
	r.lb.lbState = fresh.lbState
	return nil
}

// validate rejects a decoded state whose shapes disagree with the
// configuration it is installed under. The balancer indexes these slices
// by portfolio slot, partition unit and member id, and follows these
// pointers, without re-checking, so a mismatch would otherwise surface as
// a panic rounds later.
func (st *lbState) validate(cfg BalancerConfig, covLen int) error {
	k, units := len(cfg.Portfolio), 0
	if cfg.DataPlane == DataPlaneDepth {
		units = cfg.PartitionUnits
	}
	switch {
	case st.Cov == nil:
		return fmt.Errorf("coverage vector is null")
	case st.Cov.Len() != covLen+1:
		return fmt.Errorf("coverage vector holds %d lines, want %d", st.Cov.Len(), covLen+1)
	case len(st.SpecYield) != k:
		return fmt.Errorf("slot yield table sized %d, want %d slots", len(st.SpecYield), k)
	case len(st.UnitOwner) != units:
		return fmt.Errorf("unit table holds %d units, want %d", len(st.UnitOwner), units)
	case st.NextID < 0:
		return fmt.Errorf("next member id %d is negative", st.NextID)
	}
	for id, m := range st.Members {
		if m == nil || m.ID != id {
			return fmt.Errorf("member filed under id %d is %+v", id, m)
		}
	}
	for id, b := range st.Reseats {
		if b == nil {
			return fmt.Errorf("custody batch %d is null", id)
		}
	}
	for _, b := range st.Orphans {
		if b == nil {
			return fmt.Errorf("orphaned custody batch is null")
		}
	}
	return nil
}
