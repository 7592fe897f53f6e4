package node

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
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
// bloom filter, frequency tracker, bandit posteriors, controller phase) and
// then reconciles the DC against the journal's live set, which wins.
type durability struct {
	store    *diskcache.Store
	ckptPath string
	interval time.Duration

	model *core.Model      // nil in static mode
	ctrl  *core.Controller // nil in static mode
	eng   *cache.Sharded

	loaded    *core.Checkpoint // checkpoint found at startup, nil on cold start
	recovered atomic.Bool      // readiness gate: flips once recovery completes
	stop      chan struct{}
	done      chan struct{}
}

// openDurability opens (or creates) the data directory's journal and reads
// any checkpoint. A corrupt checkpoint is never fatal: the proxy logs it and
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
	ck, err := core.LoadCheckpoint(d.ckptPath)
	if err != nil {
		logf("checkpoint unreadable (%v); recovering from journal only", err)
	}
	d.loaded = ck
	return d, nil
}

// attach binds the engine (and, in darwin mode, the controller and model)
// once they exist.
func (d *durability) attach(eng *cache.Sharded, ctrl *core.Controller, model *core.Model) {
	d.eng = eng
	d.ctrl = ctrl
	d.model = model
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
		if ck.Engine != nil {
			if err := d.eng.RestoreState(ck.Engine); err != nil {
				logf("engine state not restored (%v); continuing cold", err)
			}
		}
		if d.ctrl != nil && ck.Controller != nil {
			if err := d.ctrl.RestoreState(ck.Controller); err != nil {
				logf("controller state not restored (%v); re-warming", err)
			}
		}
	}
	// The journal is fresher than any checkpoint: rebuild the DC from its
	// live set (oldest-first, so the newest objects land most protected).
	live := d.store.Live()
	if err := d.eng.RestoreDC(live); err != nil {
		logf("DC journal not applied (%v); continuing cold", err)
	}
	d.recovered.Store(true)
	st := d.store.Stats()
	logf("recovered %d DC objects (%d B) from %d segments in %s (checkpoint=%v, truncated=%dB)",
		len(live), st.LiveBytes, st.Segments, time.Since(start).Round(time.Millisecond), d.loaded != nil, st.TruncatedBytes)
}

// checkpoint captures and atomically persists the full learned state.
func (d *durability) checkpoint() error {
	if err := core.SaveCheckpoint(d.ckptPath, snapshot(d.eng, d.ctrl, d.model)); err != nil {
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
