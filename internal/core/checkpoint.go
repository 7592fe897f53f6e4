package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/persist"
)

// CheckpointMagic identifies a framed checkpoint file; CheckpointFormatVersion
// is its frame format version.
const (
	CheckpointMagic         = "DRWNCKPT"
	CheckpointFormatVersion = 2
)

// ControllerState is a JSON-serialisable snapshot of the online controller's
// state machine. Together with the engine snapshot (taken from the same
// quiesced moment) it lets a restarted process resume mid-epoch instead of
// relearning from scratch.
//
// Restore semantics are phase-specific:
//
//   - warmup: feature estimation cannot be checkpointed mid-stream (the
//     extractor's tree is transient by design, §6.4), so restore re-enters a
//     fresh warm-up of the same epoch. Epoch counters, diagnostics, and the
//     engine's deployed expert are preserved.
//   - identify: the bandit run resumes exactly — Σ is rebuilt from the
//     snapshotted cluster/set/features, the bandit's estimator state is
//     restored, and the in-flight round continues from its snapshotted
//     metrics baseline.
//   - exploit: counters resume; the deployed expert rides in the engine
//     snapshot.
//
// Each phase leans on the engine the state was learned on (its deployed
// expert, its round baseline), so a snapshot is restored only over the engine
// state of the same checkpoint; without it the controller re-warms.
type ControllerState struct {
	Phase      Phase         `json:"phase"`
	Epoch      int           `json:"epoch"` // 0-based
	EpochReqs  int           `json:"epoch_reqs"`
	RoundReqs  int           `json:"round_reqs"`
	ClusterID  int           `json:"cluster_id"`
	Set        []int         `json:"set,omitempty"`
	Extended   []float64     `json:"extended,omitempty"`
	Prof       SizeProfile   `json:"prof"`
	CurArm     int           `json:"cur_arm"`
	RoundStart cache.Metrics `json:"round_start"`
	Bandit     *bandit.State `json:"bandit,omitempty"`
	Diags      []EpochDiag   `json:"diags,omitempty"` // the newest maxDiags epochs' decisions
	LearningNS int64         `json:"learning_ns"`     // cumulative boundary learning time
}

// CheckpointState snapshots the controller's state machine.
func (c *Controller) CheckpointState() *ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st.clone()
	st.EpochReqs = c.epochServesLocked()
	if c.st.Phase == PhaseIdentify && c.alg != nil {
		st.Bandit = c.alg.State()
	}
	return st
}

// clone returns a copy of st that shares no slice with it and has no
// Bandit: the live controller keeps the bandit's state in its alg.
func (st *ControllerState) clone() *ControllerState {
	out := *st
	out.Set = append([]int(nil), st.Set...)
	out.Extended = append([]float64(nil), st.Extended...)
	out.Prof = SizeProfile{
		Fractions: append([]float64(nil), st.Prof.Fractions...),
		Sizes:     append([]float64(nil), st.Prof.Sizes...),
	}
	out.Bandit = nil
	out.Diags = append([]EpochDiag(nil), st.Diags...)
	return &out
}

// validate is the controller snapshot's shape check: everything that can be
// judged without the model and config the snapshot is restored into,
// except the bandit state, which SetState checks with its arm count.
func (st *ControllerState) validate() error {
	switch st.Phase {
	case PhaseWarmup, PhaseIdentify, PhaseExploit:
	default:
		return fmt.Errorf("core: unknown phase %q", st.Phase)
	}
	if st.Epoch < 0 || st.EpochReqs < 0 || st.RoundReqs < 0 {
		return fmt.Errorf("core: negative position: epoch %d, request %d, round request %d",
			st.Epoch, st.EpochReqs, st.RoundReqs)
	}
	if st.LearningNS < 0 {
		return fmt.Errorf("core: negative learning time %d", st.LearningNS)
	}
	if len(st.Diags) > maxDiags {
		return fmt.Errorf("core: %d epoch diagnostics, more than the %d a controller keeps", len(st.Diags), maxDiags)
	}
	if len(st.Prof.Fractions) != len(st.Prof.Sizes) {
		return fmt.Errorf("core: size profile has %d fractions but %d sizes",
			len(st.Prof.Fractions), len(st.Prof.Sizes))
	}
	for _, v := range append(append([]float64(nil), st.Prof.Fractions...), st.Extended...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite feature state")
		}
	}
	if err := st.RoundStart.Validate(); err != nil {
		return fmt.Errorf("core: round start: %w", err)
	}
	if st.Phase != PhaseIdentify {
		return nil
	}
	if st.Bandit == nil {
		return fmt.Errorf("core: identify snapshot missing bandit state")
	}
	if len(st.Set) < 2 {
		return fmt.Errorf("core: identify snapshot has %d-expert set", len(st.Set))
	}
	if st.CurArm < 0 || st.CurArm >= len(st.Set) {
		return fmt.Errorf("core: current arm %d out of range for %d-arm set", st.CurArm, len(st.Set))
	}
	return nil
}

// fitLocked checks st's shape (validate), then that it fits the
// controller's model and config. A snapshot that names a cluster's expert
// set must name the set this model gives that cluster: any other set was
// learned under another model, whose cluster ids, posteriors and features
// mean nothing here. For an identify snapshot it rebuilds the bandit run and
// restores its estimators; otherwise the run is nil.
func (c *Controller) fitLocked(st *ControllerState) (*bandit.Algorithm, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil controller state")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	if st.EpochReqs >= c.cfg.Epoch {
		return nil, fmt.Errorf("core: epoch position %d/%d out of range", st.EpochReqs, c.cfg.Epoch)
	}
	if len(st.Set) > 0 {
		if st.ClusterID < 0 || st.ClusterID >= c.model.Clusters.K() {
			return nil, fmt.Errorf("core: cluster %d out of range", st.ClusterID)
		}
		if want := c.model.expertSet(st.ClusterID); !slices.Equal(st.Set, want) {
			return nil, fmt.Errorf("core: snapshot's cluster %d expert set %v is not the model's %v: the state was learned under another model",
				st.ClusterID, st.Set, want)
		}
	}
	if st.Phase != PhaseIdentify {
		return nil, nil
	}
	if st.RoundReqs >= c.cfg.Round {
		return nil, fmt.Errorf("core: round position %d out of range", st.RoundReqs)
	}
	if fc := c.model.FeatureCfg; len(st.Extended) != fc.VectorLen()+fc.SizeBuckets {
		return nil, fmt.Errorf("core: identify snapshot has %d features, want %d",
			len(st.Extended), fc.VectorLen()+fc.SizeBuckets)
	}
	alg, err := bandit.New(banditConfig(c.cfg, buildSigma(c.model, c.cfg, st.Set, st.ClusterID, st.Extended)))
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding bandit: %w", err)
	}
	if err := alg.SetState(st.Bandit); err != nil {
		return nil, fmt.Errorf("core: restoring bandit: %w", err)
	}
	return alg, nil
}

// RestoreState restores a snapshot taken by CheckpointState, decoded by
// DecodeCheckpointFrame, onto a controller whose engine was restored from the
// same checkpoint: an open identification round continues from the
// snapshot's baseline, and exploit keeps the expert the engine state carries.
// It checks the snapshot's shape and that it fits the model and config; on
// error the controller is unchanged.
func (c *Controller) RestoreState(st *ControllerState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	alg, err := c.fitLocked(st)
	if err != nil {
		return err
	}
	c.st = *st.clone()
	c.alg = alg
	c.extractor.Reset()
	left := 0 // only exploit counts lock-free
	switch c.st.Phase {
	case PhaseWarmup:
		// Mid-warmup feature state is not recoverable: re-enter this epoch's
		// warm-up from its start, keeping the engine's deployed expert.
		c.st.EpochReqs = 0
		c.st.RoundReqs = 0
	case PhaseIdentify:
		c.eng.SetExpert(c.model.Experts[c.st.Set[c.st.CurArm]])
	case PhaseExploit:
		left = c.cfg.Epoch - c.st.EpochReqs
	}
	c.exploitLeft.Store(int64(left))
	return nil
}

// Checkpoint bundles what a restarted node resumes from: the engine's full
// cache state and the controller's state machine. A node that inherits a
// checkpoint through a drain handoff merges only its cache. The model is
// not part of it: every node loads its own (ReadModel). A version-2 frame
// written while checkpoints still carried the model decodes too — the
// "model" key is ignored like any unknown one. Decoding checks no part:
// each part's reader checks what it reads (Sharded.RestoreState,
// Controller.RestoreState, Sharded.MergeDC), so a bad part costs only
// itself.
type Checkpoint struct {
	Engine     *cache.ShardedState `json:"engine,omitempty"`
	Controller *ControllerState    `json:"controller,omitempty"`
}

// encodeCheckpoint serialises a checkpoint to its frame payload.
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if ck == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	return json.Marshal(ck)
}

// decodeCheckpoint parses a frame payload produced by encodeCheckpoint. It
// checks no part: restore and merge check what they read.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &ck, nil
}

// EncodeCheckpointFrame serialises a checkpoint into its framed, checksummed
// byte stream: the bytes of a node's checkpoint file and the wire format of
// the /state drain handoff, a DRWNCKPT frame whose CRC lets the reader
// refuse a damaged frame before parsing it.
func EncodeCheckpointFrame(ck *Checkpoint) ([]byte, error) {
	payload, err := encodeCheckpoint(ck)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := persist.EncodeFrame(&buf, CheckpointMagic, CheckpointFormatVersion, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpointFrame checks a framed checkpoint's magic, version and CRC
// and parses its JSON; it checks no part's contents. Framing damage returns
// a typed *persist.FormatError; nothing panics.
func DecodeCheckpointFrame(data []byte) (*Checkpoint, error) {
	payload, err := persist.DecodeFrame(bytes.NewReader(data), CheckpointMagic, CheckpointFormatVersion)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(payload)
}
