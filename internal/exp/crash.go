package exp

import (
	"fmt"
	"os"
	"time"

	"darwin/internal/cache"
	"darwin/internal/diskcache"
)

// CrashConfig sizes the crash-recovery experiment: a deployed node (rig.go)
// over a journaled disk cache is killed mid-flood (no shutdown path runs —
// exactly a SIGKILL's view of the world), a second node is built on the same
// data directory and recovers from checkpoint + journal, and it is raced
// against a cold-started control on the remainder of the trace.
type CrashConfig struct {
	// Scale fixes the trace and cache sizes.
	Scale Scale
	// Shards is the engine shard count.
	Shards int
	// CrashFrac is the fraction of the trace served before the crash.
	CrashFrac float64
	// Window is the OHR trajectory window in requests.
	Window int
	// CkptEvery is the checkpoint cadence in requests — the crash loses the
	// tail since the last checkpoint, as in production.
	CkptEvery int
	// Sync is the journal fsync policy during the flood.
	Sync diskcache.SyncPolicy
}

// DefaultCrashConfig returns the benchmark-scale crash schedule: crash at
// half-trace, 2k-request windows, checkpoint every 6k requests (so the crash
// loses a 2k-request tail the journal must make good).
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Scale:     Small(),
		Shards:    1,
		CrashFrac: 0.5,
		Window:    2_000,
		CkptEvery: 6_000,
		Sync:      diskcache.SyncBatch,
	}
}

// crashExpert is the nodes' static admission expert: darwin-proxy's -f / -s
// defaults. The learner stays out so that ServeHTTP's wall-clock request
// timestamps never reach a cell.
var crashExpert = cache.Expert{Freq: 2, MaxSize: 10 << 10}

// crashArm is one post-crash contender.
type crashArm struct {
	name string
	node *rigNode
	traj []float64 // windowed total OHR per window
	hoc  []float64 // windowed HOC OHR per window
}

// CrashRecoveryReport runs the crash-recovery chaos experiment and tabulates
// recovery time, recovered state, and how many requests each arm needs to
// regain the pre-crash hit rate. The recovered arm should be back in its
// first window; the cold arm must re-earn the whole cache.
func CrashRecoveryReport(cc CrashConfig) (*Report, error) {
	if cc.Window <= 0 || cc.CrashFrac <= 0 || cc.CrashFrac >= 1 {
		return nil, fmt.Errorf("exp: bad crash config %+v", cc)
	}
	_, test, err := BuildTraces(cc.Scale)
	if err != nil {
		return nil, err
	}
	tr := test[0]
	dir, err := os.MkdirTemp("", "darwin-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := newRig()
	defer r.close()
	cold := r.nodeConfig(crashExpert, cc.Scale.Eval)
	cold.Shards = cc.Shards
	durable := cold
	durable.Store = diskcache.Config{Dir: dir, Sync: cc.Sync}
	victim, err := r.startNode(durable)
	if err != nil {
		return nil, err
	}

	// Phase 1: flood until the crash point, checkpointing on cadence.
	crashAt := int(float64(tr.Len()) * cc.CrashFrac)
	var preHOC, preAny int
	for i := 0; i < crashAt; i++ {
		s, err := r.get(victim.url, tr.Requests[i])
		if err != nil {
			return nil, err
		}
		if i >= crashAt-cc.Window {
			if s.hoc {
				preHOC++
			}
			if s.local() {
				preAny++
			}
		}
		if cc.CkptEvery > 0 && (i+1)%cc.CkptEvery == 0 {
			if err := victim.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	preOHR, preTotal := float64(preHOC)/float64(cc.Window), float64(preAny)/float64(cc.Window)
	lostSinceCkpt := crashAt
	if cc.CkptEvery > 0 {
		lostSinceCkpt = crashAt % cc.CkptEvery
	}

	// The crash: the listener goes and the node is dropped without Close — no
	// handoff, no final checkpoint, no pending-batch flush, no journal close.
	victim.srv.Close()

	// Phase 2a: recovery — a second node on the same directory, timed from
	// construction until its recovery gate opens /readyz.
	//lint:ignore determinism recovery wall time is a reported measurement, not replay state
	recoverStart := time.Now()
	recovered, err := r.startNode(durable)
	if err != nil {
		return nil, err
	}
	//lint:ignore determinism recovery wall time is a reported measurement, not replay state
	recoveryTime := time.Since(recoverStart)
	defer recovered.depart()
	liveObjs, err := r.metric(recovered.url, "journal_live_objects")
	if err != nil {
		return nil, err
	}
	recoveredPuts, err := r.metric(recovered.url, "recovered_puts")
	if err != nil {
		return nil, err
	}

	// Phase 2b: cold control — same configuration, no data directory.
	control, err := r.startNode(cold)
	if err != nil {
		return nil, err
	}

	arms := []*crashArm{
		{name: "recovered", node: recovered},
		{name: "cold-start", node: control},
	}
	for _, a := range arms {
		if a.hoc, a.traj, err = r.replay(a.node.url, tr.Requests[crashAt:], cc.Window); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Title: fmt.Sprintf("Crash recovery: deployed node SIGKILLed mid-flood at request %d (crash loses %d journal-covered requests since last checkpoint)", crashAt, lostSinceCkpt),
		Header: []string{"arm", "recovery-ms", "dc-objs-recovered", "reqs-to-95%-ohr",
			"reqs-to-95%-tohr", "first-window-tohr", "final-window-tohr"},
	}
	for _, a := range arms {
		recMS, objs := "-", "-"
		if a.name == "recovered" {
			recMS = fmt.Sprintf("%.1f", float64(recoveryTime.Microseconds())/1000)
			objs = fmt.Sprint(liveObjs)
		}
		first, final := 0.0, 0.0
		if len(a.traj) > 0 {
			first, final = a.traj[0], a.traj[len(a.traj)-1]
		}
		rep.AddRow(a.name, recMS, objs,
			windowsToRecover(a.hoc, preOHR, cc.Window),
			windowsToRecover(a.traj, preTotal, cc.Window),
			f4(first), f4(final))
	}
	rep.AddNote("pre-crash windowed OHR %.4f, total OHR %.4f (window=%d requests, static expert %s)",
		preOHR, preTotal, cc.Window, crashExpert)
	rep.AddNote("journal recovery: %d puts replayed; fsync policy %s; recovery-ms runs from node construction to /readyz 200",
		recoveredPuts, cc.Sync)
	return rep, nil
}

// windowsToRecover returns the request count until the trajectory first
// reaches 95% of the pre-crash level, or "never" if it does not.
func windowsToRecover(traj []float64, pre float64, window int) string {
	if pre <= 0 {
		return "0"
	}
	if w := windowsTo(traj, 0.95*pre); w > 0 {
		return fmt.Sprint(w * window)
	}
	return "never"
}
