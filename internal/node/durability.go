package node

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/persist"
)

// checkpointFile is the checkpoint's name inside the data directory.
const checkpointFile = "darwin.ckpt"

// durability owns a node's on-disk state: the append-only DC journal and the
// periodic learned-state checkpoint. It is absent (nil) unless Config.Store.Dir
// is set.
//
// Recovery model: the journal is written synchronously on every DC admission
// and eviction, so after a crash it is always fresher than the last periodic
// checkpoint. Restore therefore applies the checkpoint first (HOC contents,
// request counts and missed marks, bandit posteriors, controller phase) and
// then reconciles the DC against the journal's live set, which wins.
type durability struct {
	store    *diskcache.Store
	ckptPath string
	interval time.Duration

	ctrl *core.Controller // nil in static mode
	eng  *cache.Sharded

	loaded    *core.Checkpoint // checkpoint found at startup, nil on cold start
	recovered atomic.Bool      // readiness gate: flips once recovery completes
	stop      chan struct{}
	done      chan struct{}
}

// openDurability opens (or creates) the data directory's journal, removes
// the temp file of a checkpoint write a crash interrupted, and reads any
// checkpoint. A corrupt checkpoint is never fatal: the proxy logs it and
// recovers from the journal alone.
func openDurability(cfg diskcache.Config, interval time.Duration) (*durability, error) {
	store, err := diskcache.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening disk cache journal: %w", err)
	}
	d := &durability{
		store:    store,
		ckptPath: filepath.Join(cfg.Dir, checkpointFile),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := persist.RemoveTemps(d.ckptPath); err != nil {
		_ = store.Close() // already failing; the journal holds nothing new
		return nil, fmt.Errorf("removing checkpoint temp files: %w", err)
	}
	d.loaded = loadCheckpoint(d.ckptPath)
	return d, nil
}

// loadCheckpoint reads the checkpoint file at path. A missing file is a
// cold start and an unreadable one is logged; both return nil.
func loadCheckpoint(path string) *core.Checkpoint {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	var ck *core.Checkpoint
	if err == nil {
		ck, err = core.DecodeCheckpointFrame(data)
	}
	if err != nil {
		logf("checkpoint unreadable (%v); recovering from journal only", err)
	}
	return ck
}

// attach binds the engine (and, in darwin mode, the controller) once they
// exist.
func (d *durability) attach(eng *cache.Sharded, ctrl *core.Controller) {
	d.eng = eng
	d.ctrl = ctrl
}

// start runs recovery and then the periodic checkpointer in the background.
// The /readyz recovery gate stays unready until restore finishes.
func (d *durability) start() {
	go d.run()
}

// recover replays checkpoint + journal into the live engine. Every failure is
// a warning, not an exit: a proxy that lost its learned state still serves,
// it just re-warms.
func (d *durability) recover() {
	start := time.Now()
	if ck := d.loaded; ck != nil {
		// Each restore checks only the part it reads: a refused controller
		// part leaves the restored engine serving.
		es, err := ck.EngineState()
		if err == nil {
			err = d.eng.RestoreState(es)
		}
		if err != nil {
			logf("engine state not restored (%v); continuing cold", err)
		} else if d.ctrl != nil && ck.Controller != nil {
			err = d.ctrl.RestoreState(ck.Controller)
		}
		// A controller state resumes only over the engine it was learned on
		// (its deployed expert, its round baseline): without that engine the
		// controller re-warms, as on a cold start.
		if err != nil && d.ctrl != nil && ck.Controller != nil {
			logf("controller state not restored (%v); re-warming", err)
		}
	}
	// The journal is fresher than any checkpoint: rebuild the DC from its
	// live set (oldest-first, so the newest objects land most protected).
	live := d.store.Live()
	if err := d.eng.RestoreDC(live); err != nil {
		logf("DC journal not applied (%v); continuing cold", err)
	}
	d.recovered.Store(true)
	st := d.store.Stats() // after RestoreDC, which journals what no longer fits
	logf("recovered %d DC objects (%d B) from a %d B journal in %s (checkpoint=%v, truncated=%dB)",
		st.LiveObjects, st.LiveBytes, st.LogBytes, time.Since(start).Round(time.Millisecond), d.loaded != nil, st.TruncatedBytes)
}

// checkpoint captures and atomically persists the learned state: the same
// frame a drain pushes to the ring successor.
func (d *durability) checkpoint() error {
	frame, err := core.EncodeCheckpointFrame(snapshot(d.eng, d.ctrl))
	if err != nil {
		return err
	}
	if err := persist.WriteFileAtomic(d.ckptPath, frame, 0o644); err != nil {
		return err
	}
	return d.store.Sync()
}

// run is the background durability loop: recovery first, then periodic
// checkpoints until close.
func (d *durability) run() {
	defer close(d.done)
	d.recover()
	if d.interval <= 0 {
		<-d.stop
		return
	}
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := d.checkpoint(); err != nil {
				logf("checkpoint failed: %v", err)
			}
		case <-d.stop:
			return
		}
	}
}

// close stops the loop, writes a final checkpoint, and closes the journal.
// Called after the HTTP server has drained, so the captured state is quiesced.
func (d *durability) close() {
	close(d.stop)
	<-d.done
	if err := d.checkpoint(); err != nil {
		logf("final checkpoint failed: %v", err)
	}
	if err := d.store.Close(); err != nil {
		logf("closing journal: %v", err)
	}
}
