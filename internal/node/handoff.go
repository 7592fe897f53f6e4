package node

// Drain-time state handoff: the glue between the server layer's /state
// endpoint and the checkpoint codec. A draining node pushes its learned state
// as one DRWNCKPT frame (the bytes the durability layer writes to disk; the
// successor runs its own model); the inheriting successor merges the pieces
// it can use:
//
//   - cache contents: the donor's resident HOC+DC set folds into the
//     inheritor's DC through the normal eviction path (MergeDC) — the
//     successor is about to receive the donor's keyspace, so those objects
//     are tomorrow's traffic.
//   - learned state: bandit posteriors and the controller's epoch position
//     are adopted only when the donor is *ahead* (later epoch, or further
//     into the same epoch) — an inheritor with more learning keeps its own.
//
// Everything is validate-then-commit: the frame's CRC and the checkpoint
// decode, which validates every part, run before the first mutation, so a
// corrupt frame leaves the inheritor untouched (the server layer answers it
// 400 and counts a state_reject).

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/core"
)

// snapshot captures the node's learned state: the checkpoint file's and the
// handoff frame's alike.
func snapshot(eng *cache.Sharded, ctrl *core.Controller) *core.Checkpoint {
	ck := &core.Checkpoint{Engine: eng.State()}
	if ctrl != nil {
		ck.Controller = ctrl.CheckpointState()
	}
	return ck
}

// donorLevels lists a donor engine snapshot's resident levels in the order
// MergeDC admits them: every shard's DC, then every shard's HOC (MergeDC
// evicts from the DC tail under pressure, so the donor's hottest objects —
// its HOC — are admitted last and sit most-protected).
func donorLevels(es *cache.ShardedState) [][]cache.ResidentObject {
	var dcs, hocs [][]cache.ResidentObject
	for _, sh := range es.Shards {
		dcs, hocs = append(dcs, sh.DC), append(hocs, sh.HOC)
	}
	return append(dcs, hocs...)
}

// controllerAhead reports whether the donor's learning position is strictly
// ahead of ours: a later epoch, or more requests into the same epoch.
func controllerAhead(donor, local *core.ControllerState) bool {
	if donor.Epoch != local.Epoch {
		return donor.Epoch > local.Epoch
	}
	return donor.EpochReqs > local.EpochReqs
}

// handoffAcceptor builds the /state POST side: decode (which validates the
// frame's every part), then commit — controller first (its adoption checks
// that the state fits before mutating anything; a state that does not fit,
// such as one learned under another model, is logged and skipped, and this
// node keeps learning its own way), cache merge last (it cannot fail on
// decoded levels). A frame from an older donor also carries its
// model, which the decoder skips. The donor's round baseline counts the
// donor's engine, so an adopted identification round restarts on ours.
func handoffAcceptor(eng *cache.Sharded, ctrl *core.Controller) func([]byte) error {
	return func(data []byte) error {
		ck, err := core.DecodeCheckpointFrame(data)
		if err != nil {
			return err
		}
		if ck.Engine == nil {
			return fmt.Errorf("handoff: frame carries no engine state")
		}
		if ctrl != nil && ck.Controller != nil && controllerAhead(ck.Controller, ctrl.CheckpointState()) {
			if err := ctrl.AdoptState(ck.Controller); err != nil {
				logf("handoff: controller state not adopted (%v); keeping this node's", err)
			}
		}
		for _, level := range donorLevels(ck.Engine) {
			if _, err := eng.MergeDC(level); err != nil {
				return fmt.Errorf("handoff: merging donor cache: %w", err)
			}
		}
		return nil
	}
}
