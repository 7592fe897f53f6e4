package node

// Drain-time state handoff: the glue between the server layer's /state
// endpoint and the checkpoint codec. A draining node provides its full
// learned state as one DRWNCKPT frame (the exact bytes the durability layer
// writes to disk); the inheriting successor merges the pieces it can use:
//
//   - cache contents: the donor's resident HOC+DC set folds into the
//     inheritor's DC through the normal eviction path (MergeDC) — the
//     successor is about to receive the donor's keyspace, so those objects
//     are tomorrow's traffic.
//   - learned state: bandit posteriors and the controller's epoch position
//     are adopted only when the donor is *ahead* (later epoch, or further
//     into the same epoch) — an inheritor with more learning keeps its own.
//
// Everything is validate-then-commit: the frame's CRC, the checkpoint
// decode, and all entry validation run before the first mutation, so a
// corrupt frame leaves the inheritor untouched (the server layer answers it
// 400 and counts a state_reject).

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/core"
)

// handoffProvider builds the /state GET (and drain-push) side: a fresh
// checkpoint frame of the node's current state.
func handoffProvider(eng *cache.Sharded, ctrl *core.Controller, model *core.Model) func() ([]byte, error) {
	return func() ([]byte, error) {
		return core.EncodeCheckpointFrame(snapshot(eng, ctrl, model))
	}
}

// snapshot captures the node's full learned state: what a checkpoint file and
// a handoff frame both carry.
func snapshot(eng *cache.Sharded, ctrl *core.Controller, model *core.Model) *core.Checkpoint {
	ck := &core.Checkpoint{Model: model, Engine: eng.State()}
	if ctrl != nil {
		ck.Controller = ctrl.CheckpointState()
	}
	return ck
}

// donorResidents flattens a donor engine snapshot into one resident-object
// list: DC first, then HOC (MergeDC admits in order and evicts from the DC
// tail under pressure, so the donor's hottest objects — its HOC — are
// admitted last and sit most-protected).
func donorResidents(es *cache.ShardedState) []cache.ResidentObject {
	var out []cache.ResidentObject
	for _, sh := range es.Shards {
		if sh == nil {
			continue
		}
		out = append(out, sh.DC...)
	}
	for _, sh := range es.Shards {
		if sh == nil {
			continue
		}
		out = append(out, sh.HOC...)
	}
	return out
}

// controllerAhead reports whether the donor's learning position is strictly
// ahead of ours: a later epoch, or more requests into the same epoch.
func controllerAhead(donor, local *core.ControllerState) bool {
	if donor.Epoch != local.Epoch {
		return donor.Epoch > local.Epoch
	}
	return donor.EpochReqs > local.EpochReqs
}

// handoffAcceptor builds the /state POST side: decode, validate everything,
// then commit — controller first (its restore is internally
// validate-then-commit), cache merge last (it cannot fail once entries are
// validated).
func handoffAcceptor(eng *cache.Sharded, ctrl *core.Controller) func([]byte) error {
	return func(data []byte) error {
		ck, err := core.DecodeCheckpointFrame(data)
		if err != nil {
			return err
		}
		if ck.Engine == nil {
			return fmt.Errorf("handoff: frame carries no engine state")
		}
		entries := donorResidents(ck.Engine)
		for _, e := range entries {
			if e.Size <= 0 {
				return fmt.Errorf("handoff: donor object %d has size %d", e.ID, e.Size)
			}
		}
		if ctrl != nil && ck.Controller != nil && controllerAhead(ck.Controller, ctrl.CheckpointState()) {
			if err := ctrl.RestoreState(ck.Controller); err != nil {
				return fmt.Errorf("handoff: adopting controller state: %w", err)
			}
		}
		if _, err := eng.MergeDC(entries); err != nil {
			return fmt.Errorf("handoff: merging donor cache: %w", err)
		}
		return nil
	}
}
