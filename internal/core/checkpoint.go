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

// ControllerState is the online controller's state: what step advances,
// and, JSON-serialised, its snapshot. Together with the engine snapshot
// (taken from the same quiesced moment) it lets a restarted process resume
// mid-epoch instead of relearning from scratch (RestoreState).
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
	Bandit     *bandit.State `json:"bandit,omitempty"` // identify only
	Diags      []EpochDiag   `json:"diags,omitempty"`  // the newest maxDiags epochs' decisions
	LearningNS int64         `json:"learning_ns"`      // cumulative boundary learning time

	// sigma is the identification run's Σ, built once per run (at warm-up's
	// end, or by fit on restore) and never written after; not snapshotted.
	sigma [][]float64
}

// CheckpointState snapshots the controller's state: a copy that shares no
// slice with it, without Σ.
func (c *Controller) CheckpointState() *ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Set = append([]int(nil), st.Set...)
	st.Extended = append([]float64(nil), st.Extended...)
	st.Prof = SizeProfile{
		Fractions: append([]float64(nil), st.Prof.Fractions...),
		Sizes:     append([]float64(nil), st.Prof.Sizes...),
	}
	if st.Bandit != nil {
		st.Bandit = st.Bandit.Clone()
	}
	st.Diags = append([]EpochDiag(nil), st.Diags...)
	st.sigma = nil
	return &st
}

// validate is the controller snapshot's shape check: everything that can be
// judged without the model and config the snapshot is restored into,
// except the bandit state, which fit checks against the run's Σ.
func (st *ControllerState) validate() error {
	if !slices.Contains([]Phase{PhaseWarmup, PhaseIdentify, PhaseExploit}, st.Phase) {
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
	if st.Phase == PhaseIdentify && (st.CurArm < 0 || st.CurArm >= len(st.Set)) {
		return fmt.Errorf("core: current arm %d out of range for %d-arm set", st.CurArm, len(st.Set))
	}
	return nil
}

// fit checks that a validated st fits the model and config. A snapshot
// that names a cluster's expert set must name the set this model gives that
// cluster: any other set was learned under another model, whose cluster
// ids, posteriors and features mean nothing here. For an identify snapshot
// it builds the run's Σ into st and checks the bandit state against it.
func fit(m *Model, cfg OnlineConfig, st *ControllerState) error {
	if st.EpochReqs >= cfg.Epoch {
		return fmt.Errorf("core: epoch position %d/%d out of range", st.EpochReqs, cfg.Epoch)
	}
	if len(st.Set) > 0 {
		if st.ClusterID < 0 || st.ClusterID >= m.Clusters.K() {
			return fmt.Errorf("core: cluster %d out of range", st.ClusterID)
		}
		if want := m.expertSet(st.ClusterID); !slices.Equal(st.Set, want) {
			return fmt.Errorf("core: snapshot's cluster %d expert set %v is not the model's %v: the state was learned under another model",
				st.ClusterID, st.Set, want)
		}
	}
	if st.Phase != PhaseIdentify {
		return nil
	}
	if st.RoundReqs >= cfg.Round {
		return fmt.Errorf("core: round position %d out of range", st.RoundReqs)
	}
	if fc := m.FeatureCfg; len(st.Extended) != fc.VectorLen()+fc.SizeBuckets {
		return fmt.Errorf("core: identify snapshot has %d features, want %d",
			len(st.Extended), fc.VectorLen()+fc.SizeBuckets)
	}
	st.sigma = buildSigma(m, cfg, st.Set, st.ClusterID, st.Extended)
	bc := banditConfig(cfg, st.sigma)
	if err := bc.Validate(); err != nil {
		return err
	}
	return bc.CheckState(st.Bandit)
}

// RestoreState restores the controller part of a checkpoint — the JSON of a
// CheckpointState snapshot — onto a controller whose engine was restored
// from the same checkpoint: each phase leans on the engine the state was
// learned on, and without it the controller re-warms. It decodes the part,
// checks its shape (validate) and that it fits the model and config (fit),
// and only then sets it; on error the controller is unchanged. A warm-up
// state re-enters the epoch's warm-up at its start, since the extractor's
// tree is transient by design (§6.4); an identify state resumes its bandit
// run over a rebuilt Σ and its open round from the snapshot's baseline; an
// exploit state resumes its count, its expert riding in the engine state.
func (c *Controller) RestoreState(part json.RawMessage) error {
	var st ControllerState
	if err := json.Unmarshal(part, &st); err != nil {
		return fmt.Errorf("core: decoding controller state: %w", err)
	}
	if err := st.validate(); err != nil {
		return err
	}
	if err := fit(c.model, c.cfg, &st); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st = st
	c.extractor.Reset()
	switch st.Phase {
	case PhaseWarmup:
		// Mid-warmup feature state is not recoverable: re-enter this epoch's
		// warm-up from its start, keeping the engine's deployed expert.
		c.st.EpochReqs, c.st.RoundReqs = 0, 0
	case PhaseIdentify:
		c.eng.SetExpert(c.model.Experts[st.Set[st.CurArm]])
	}
	return nil
}

// Checkpoint is a decoded checkpoint frame: the engine's full cache state
// and the controller's state, each part held as raw JSON. Each reader
// decodes and checks the part it reads (EngineState, then
// Sharded.RestoreState; a /state heir only the resident levels it hands to
// MergeDC; Controller.RestoreState), so a bad part, even one of the wrong
// JSON type, costs only itself. The model is not part
// of it (every node loads its own, ReadModel): the "model" key of a
// version-2 frame written while checkpoints carried one is ignored like any
// unknown key.
type Checkpoint struct {
	Engine     json.RawMessage `json:"engine,omitempty"`
	Controller json.RawMessage `json:"controller,omitempty"`
}

// EngineState decodes the checkpoint's engine part; a missing or null one
// is an error.
func (ck *Checkpoint) EngineState() (*cache.ShardedState, error) {
	var es *cache.ShardedState
	if err := json.Unmarshal(ck.Engine, &es); err != nil {
		return nil, fmt.Errorf("core: decoding engine state: %w", err)
	}
	if es == nil {
		return nil, fmt.Errorf("core: checkpoint carries no engine state")
	}
	return es, nil
}

// EncodeCheckpointFrame serialises an engine state and a controller state
// (nil in static mode) into a checkpoint's framed, checksummed byte stream:
// the bytes of a node's checkpoint file and the wire format of the /state
// drain handoff, a DRWNCKPT frame whose CRC lets the reader refuse a damaged
// frame before parsing it.
func EncodeCheckpointFrame(eng *cache.ShardedState, ctrl *ControllerState) ([]byte, error) {
	payload, err := json.Marshal(struct {
		Engine     *cache.ShardedState `json:"engine,omitempty"`
		Controller *ControllerState    `json:"controller,omitempty"`
	}{eng, ctrl})
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
// and splits its JSON into parts; it checks no part's contents. Framing
// damage returns a typed *persist.FormatError; nothing panics.
func DecodeCheckpointFrame(data []byte) (*Checkpoint, error) {
	payload, err := persist.DecodeFrame(bytes.NewReader(data), CheckpointMagic, CheckpointFormatVersion)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &ck, nil
}
