package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/persist"
)

// CheckpointMagic identifies a framed checkpoint file; CheckpointFormatVersion
// is its frame format version.
const (
	CheckpointMagic         = "DRWNCKPT"
	CheckpointFormatVersion = 1
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
type ControllerState struct {
	Phase      string        `json:"phase"`
	Epoch      int           `json:"epoch"`
	EpochReqs  int           `json:"epoch_reqs"`
	RoundReqs  int           `json:"round_reqs"`
	ClusterID  int           `json:"cluster_id"`
	Set        []int         `json:"set,omitempty"`
	Extended   []float64     `json:"extended,omitempty"`
	Prof       SizeProfile   `json:"prof"`
	CurArm     int           `json:"cur_arm"`
	RoundStart cache.Metrics `json:"round_start"`
	Bandit     *bandit.State `json:"bandit,omitempty"`
	Diags      []EpochDiag   `json:"diags,omitempty"`
	LearningNS int64         `json:"learning_ns"`
}

// CheckpointState snapshots the controller's state machine.
func (c *Controller) CheckpointState() *ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &ControllerState{
		Phase:     c.phase.String(),
		Epoch:     c.epoch,
		EpochReqs: c.epochServesLocked(),
		RoundReqs: c.roundReqs,
		ClusterID: c.clusterID,
		Set:       append([]int(nil), c.set...),
		Extended:  append([]float64(nil), c.extended...),
		Prof: SizeProfile{
			Fractions: append([]float64(nil), c.prof.Fractions...),
			Sizes:     append([]float64(nil), c.prof.Sizes...),
		},
		CurArm:     c.curArm,
		RoundStart: c.roundStart,
		Diags:      append([]EpochDiag(nil), c.diags...),
		LearningNS: c.learningNS,
	}
	if c.phase == PhaseIdentify && c.alg != nil {
		st.Bandit = c.alg.State()
	}
	return st
}

// restorePlan holds a fully validated controller state ready to commit.
type restorePlan struct {
	phase     Phase
	alg       *bandit.Algorithm // non-nil only for identify
	setExpert bool              // re-deploy set[curArm] on commit (identify)
	st        *ControllerState
}

// prepareRestoreLocked validates st against the controller's model and config
// and builds everything that restore needs, without mutating the controller.
func (c *Controller) prepareRestoreLocked(st *ControllerState) (restorePlan, error) {
	var plan restorePlan
	if st == nil {
		return plan, fmt.Errorf("core: nil controller state")
	}
	switch st.Phase {
	case "warmup":
		plan.phase = PhaseWarmup
	case "identify":
		plan.phase = PhaseIdentify
	case "exploit":
		plan.phase = PhaseExploit
	default:
		return plan, fmt.Errorf("core: unknown phase %q", st.Phase)
	}
	if st.Epoch < 0 || st.EpochReqs < 0 || st.EpochReqs >= c.cfg.Epoch {
		return plan, fmt.Errorf("core: epoch position %d/%d out of range", st.EpochReqs, st.Epoch)
	}
	if st.LearningNS < 0 {
		return plan, fmt.Errorf("core: negative learning time %d", st.LearningNS)
	}
	if len(st.Prof.Fractions) != len(st.Prof.Sizes) {
		return plan, fmt.Errorf("core: size profile has %d fractions but %d sizes",
			len(st.Prof.Fractions), len(st.Prof.Sizes))
	}
	for _, v := range append(append([]float64(nil), st.Prof.Fractions...), st.Extended...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return plan, fmt.Errorf("core: non-finite feature state")
		}
	}
	if len(st.Set) > 0 {
		if st.ClusterID < 0 || st.ClusterID >= c.model.Clusters.K() {
			return plan, fmt.Errorf("core: cluster %d out of range", st.ClusterID)
		}
		for _, ei := range st.Set {
			if ei < 0 || ei >= len(c.model.Experts) {
				return plan, fmt.Errorf("core: snapshot references expert %d of %d", ei, len(c.model.Experts))
			}
		}
	}
	if plan.phase != PhaseIdentify {
		plan.st = st
		return plan, nil
	}

	// Identify: rebuild the bandit run and restore its estimators.
	if st.Bandit == nil {
		return plan, fmt.Errorf("core: identify snapshot missing bandit state")
	}
	if len(st.Set) < 2 {
		return plan, fmt.Errorf("core: identify snapshot has %d-expert set", len(st.Set))
	}
	if st.CurArm < 0 || st.CurArm >= len(st.Set) {
		return plan, fmt.Errorf("core: current arm %d out of range for %d-arm set", st.CurArm, len(st.Set))
	}
	if st.RoundReqs < 0 || st.RoundReqs >= c.cfg.Round {
		return plan, fmt.Errorf("core: round position %d out of range", st.RoundReqs)
	}
	sigma2 := buildSigma(c.model, c.cfg, st.Set, st.ClusterID, st.Extended)
	alg, err := bandit.New(banditConfig(c.cfg, sigma2, c.cfg.Warmup))
	if err != nil {
		return plan, fmt.Errorf("core: rebuilding bandit: %w", err)
	}
	if err := alg.SetState(st.Bandit); err != nil {
		return plan, fmt.Errorf("core: restoring bandit: %w", err)
	}
	plan.alg = alg
	plan.setExpert = true
	plan.st = st
	return plan, nil
}

// commitRestoreLocked applies a validated plan.
func (c *Controller) commitRestoreLocked(plan restorePlan) {
	st := plan.st
	c.phase = plan.phase
	c.epoch = st.Epoch
	c.epochReqs = st.EpochReqs
	c.roundReqs = st.RoundReqs
	c.clusterID = st.ClusterID
	c.set = append([]int(nil), st.Set...)
	c.extended = append([]float64(nil), st.Extended...)
	c.prof = SizeProfile{
		Fractions: append([]float64(nil), st.Prof.Fractions...),
		Sizes:     append([]float64(nil), st.Prof.Sizes...),
	}
	c.curArm = st.CurArm
	c.roundStart = st.RoundStart
	c.alg = plan.alg
	c.diags = append([]EpochDiag(nil), st.Diags...)
	c.learningNS = st.LearningNS
	c.extractor.Reset()
	left := 0 // only exploit counts lock-free
	switch plan.phase {
	case PhaseWarmup:
		// Mid-warmup feature state is not recoverable: re-enter this epoch's
		// warm-up from its start, keeping the engine's deployed expert.
		c.epochReqs = 0
		c.roundReqs = 0
	case PhaseExploit:
		left = c.cfg.Epoch - c.epochReqs
	}
	c.exploitLeft.Store(int64(left))
	if plan.setExpert {
		c.eng.SetExpert(c.model.Experts[c.set[c.curArm]])
	}
}

// RestoreState restores a snapshot taken by CheckpointState. Everything is
// validated before anything is mutated; on error the controller is unchanged.
func (c *Controller) RestoreState(st *ControllerState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	plan, err := c.prepareRestoreLocked(st)
	if err != nil {
		return err
	}
	c.commitRestoreLocked(plan)
	return nil
}

// Checkpoint bundles everything a restarted proxy needs to resume: the
// trained model (skipping retraining), the engine's full cache state, and the
// controller's state machine.
type Checkpoint struct {
	Model      *Model
	Engine     *cache.ShardedState
	Controller *ControllerState
}

// checkpointJSON is the serialised form; the model rides as its modelJSON.
type checkpointJSON struct {
	Model      *modelJSON          `json:"model,omitempty"`
	Engine     *cache.ShardedState `json:"engine,omitempty"`
	Controller *ControllerState    `json:"controller,omitempty"`
}

// EncodeCheckpoint serialises a checkpoint to its frame payload.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if ck == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	cj := checkpointJSON{Engine: ck.Engine, Controller: ck.Controller}
	if ck.Model != nil {
		mj, err := modelToJSON(ck.Model)
		if err != nil {
			return nil, err
		}
		cj.Model = &mj
	}
	return json.Marshal(cj)
}

// DecodeCheckpoint parses and validates a frame payload produced by
// EncodeCheckpoint.
func DecodeCheckpoint(payload []byte) (*Checkpoint, error) {
	var cj checkpointJSON
	if err := json.Unmarshal(payload, &cj); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	ck := &Checkpoint{Engine: cj.Engine, Controller: cj.Controller}
	if cj.Model != nil {
		m, err := modelFromJSON(*cj.Model)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint model: %w", err)
		}
		ck.Model = m
	}
	return ck, nil
}

// SaveCheckpoint atomically writes a framed, checksummed checkpoint file.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	payload, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return persist.SaveFrame(path, CheckpointMagic, CheckpointFormatVersion, payload, 0o644)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. A missing file
// returns (nil, nil) — cold start; a present-but-corrupt file returns a typed
// error (*persist.FormatError for framing damage).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	payload, err := persist.LoadFrame(path, CheckpointMagic, CheckpointFormatVersion)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(payload)
}

// EncodeCheckpointFrame serialises a checkpoint into the same framed,
// checksummed byte stream SaveCheckpoint writes to disk — the wire format of
// the /state drain handoff: a DRWNCKPT frame whose CRC lets the receiving
// node validate the whole transfer before touching any live state.
func EncodeCheckpointFrame(ck *Checkpoint) ([]byte, error) {
	payload, err := EncodeCheckpoint(ck)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := persist.EncodeFrame(&buf, CheckpointMagic, CheckpointFormatVersion, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpointFrame parses a framed checkpoint produced by
// EncodeCheckpointFrame (or read from a SaveCheckpoint file). Framing damage
// returns a typed *persist.FormatError; nothing panics.
func DecodeCheckpointFrame(data []byte) (*Checkpoint, error) {
	payload, err := persist.DecodeFrame(bytes.NewReader(data), CheckpointMagic, CheckpointFormatVersion)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(payload)
}
