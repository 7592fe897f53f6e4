package node

// Drain-time state handoff: the glue between the server layer's /state
// endpoint and the checkpoint codec. A draining node pushes its checkpoint
// as one DRWNCKPT frame (the bytes the durability layer writes to disk); the
// inheriting successor merges its cache contents only: the donor's resident
// HOC+DC set folds into the inheritor's DC through the normal eviction path
// (MergeDC) — the successor is about to receive the donor's keyspace, so
// those objects are tomorrow's traffic. The frame's controller state stays
// behind: it was learned over the donor's traffic and the donor's engine,
// and the successor keeps learning its own way over its own model.
//
// The acceptor checks only what it merges — the frame's CRC, an engine part
// with no null shard, every resident level — all before the first
// mutation, so a frame that fails leaves the inheritor untouched (the
// server layer answers it 400 and counts a state_reject), and a controller
// part, or a shard's tracker, counts or metrics, of any content or JSON
// type, none of which the heir reads, costs it nothing.

import (
	"encoding/json"
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/core"
)

// snapshot captures the node's learned state, the parts of the checkpoint
// file and the handoff frame alike (core.EncodeCheckpointFrame).
func snapshot(eng *cache.Sharded, ctrl *core.Controller) (*cache.ShardedState, *core.ControllerState) {
	if ctrl == nil {
		return eng.State(), nil
	}
	return eng.State(), ctrl.CheckpointState()
}

// donorEngine is the part of a donor's engine state the heir merges: each
// shard's resident levels. Decoding into it skips every other field of a
// shard (tracker, counts, metrics) unread, whatever its JSON type.
type donorEngine struct {
	Shards []*struct {
		HOC []cache.ResidentObject `json:"hoc"`
		DC  []cache.ResidentObject `json:"dc"`
	} `json:"shards"`
}

// donorLevels decodes a donor's engine part and lists its resident levels in
// the order MergeDC admits them: every shard's DC, then every shard's HOC
// (MergeDC evicts from the DC tail under pressure, so the donor's hottest
// objects — its HOC — are admitted last and sit most-protected). A missing
// or null engine part, or a null shard, is an error.
func donorLevels(part json.RawMessage) ([][]cache.ResidentObject, error) {
	var es *donorEngine
	if err := json.Unmarshal(part, &es); err != nil {
		return nil, fmt.Errorf("handoff: decoding the donor's engine state: %w", err)
	}
	if es == nil {
		return nil, fmt.Errorf("handoff: the frame carries no engine state")
	}
	var dcs, hocs [][]cache.ResidentObject
	for i, sh := range es.Shards {
		if sh == nil {
			return nil, fmt.Errorf("handoff: donor shard %d is null", i)
		}
		dcs, hocs = append(dcs, sh.DC), append(hocs, sh.HOC)
	}
	return append(dcs, hocs...), nil
}

// handoffAcceptor builds the /state POST side: decode the frame, then merge
// the donor's resident levels, which MergeDC checks all before it merges
// the first. A frame from an older donor also carries its model, which the
// decoder skips.
func handoffAcceptor(eng *cache.Sharded) func([]byte) error {
	return func(data []byte) error {
		ck, err := core.DecodeCheckpointFrame(data)
		if err != nil {
			return err
		}
		levels, err := donorLevels(ck.Engine)
		if err != nil {
			return err
		}
		_, err = eng.MergeDC(levels...)
		return err
	}
}
